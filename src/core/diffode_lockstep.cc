// The lockstep DIFFODE engine behind DiffOde::ClassifyLogitsBatched /
// PredictAtBatched (core/batched_model.h), one template for both serving
// precisions: LockstepEngine<T> runs over a frozen ServingT<T> snapshot of
// the model's layers, T = double by default and float after
// Freeze(Precision::kF32).
//
// What runs in T: the featurizer and the encoder, the RHS — DiffOdeRhs of
// core/dhs.h, the function the per-sequence tape node RhsVar runs at B = 1:
// the per-step DHS recoveries (p from S, z from p, the Eq. 12 derivative)
// over flat chunked scratch, phi / f_r / w_r and the HiPPO tail — and the
// readouts. What stays f64 at both precisions: the DHS factorization with
// the h2/adaH heads, z̄ and the initial state (from the encoded latents
// widened once per sequence), the step plans (BuildBatchPlans, the one
// timeline the tape forward walks too) and the carried state with its
// stage combines (ode::LockstepIntegrate<T>). The inversion is the
// numerically delicate part of DHS and the state accumulate is where
// rounding compounds; both cost per sequence or per stage, not per GEMM.
//
// The engine builds no autograd Var: its encode is DiffOde::Encode's value
// chain (BuildContexts, InitialState) written as the same kernels calls in
// the same operand order over plain tensors.
//
// Equivalence with the per-sequence path. Every row replays its exact
// per-sequence (t, h) timeline through the same RHS function. At T = double
// and B = 1 every GEMM has the per-sequence shape, so results are bitwise
// identical to the per-sequence path; at B > 1 the shared MLPs run at GEMM
// shape m = B and the bound is 1e-10 relative
// (tests/batched_equiv_test.cc). The f32 tiers are in
// tests/precision_test.cc. Results are bitwise identical at any thread
// count: the per-row passes shard on fixed chunk grids with disjoint writes.
#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/batch_plans.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/encoding.h"
#include "linalg/lu.h"
#include "nn/frozen.h"
#include "ode/lockstep.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"

namespace diffode::core {
namespace {

// An f64 tensor at the engine dtype (moved through at T = double).
template <typename T>
TensorT<T> ToDtype(Tensor t) {
  if constexpr (std::is_same_v<T, Scalar>) {
    return t;
  } else {
    return t.template Cast<T>();
  }
}

// An engine-dtype tensor widened to f64 (moved through at T = double).
template <typename T>
Tensor ToF64(TensorT<T> t) {
  if constexpr (std::is_same_v<T, Scalar>) {
    return t;
  } else {
    return t.template Cast<Scalar>();
  }
}

// One attention head's factorization (the values of a DhsContext,
// core/dhs.h) at the engine dtype: built in f64, cast once per sequence.
template <typename T>
struct DhsContextT {
  TensorT<T> zt_pinv;    // (Zᵀ)†, n x d_h
  TensorT<T> ap_rowsum;  // (A_p J)ᵀ, 1 x n
  TensorT<T> ada_corr;   // h A_p, 1 x n; empty unless the adaH strategy
  TensorT<T> z;          // n x d_h
  T ap_total = 0;
  Index d = 0;

  // BuildDhsContext (and CacheAdaHCorrection when h_ada, 1 x n, is given)
  // on the head's latents z (n x d_h): the same kernels calls in the same
  // operand order as the tape's values.
  static DhsContextT Build(Tensor z, Scalar ridge, const Tensor* h_ada) {
    const Index n = z.rows(), d = z.cols();
    const Tensor zt = z.Transposed();
    Tensor gram = zt.MatMul(z);
    for (Index i = 0; i < d; ++i) gram.data()[i * d + i] += ridge;
    Tensor zt_pinv = z.MatMul(linalg::Inverse(gram));
    // (A_p J)ᵀ = 1 - (Zᵀ)† (Zᵀ 1), exactly zero for n <= d (BuildDhsContext).
    Tensor ap = Tensor::Zeros(Shape{1, n});
    if (n > d) {
      const Tensor proj =
          zt_pinv.MatMul(zt.MatMul(Tensor::Ones(Shape{n, 1})));
      ap = Tensor::Ones(Shape{1, n});
      kernels::Axpy(n, -1.0, proj.data(), ap.data());
    }
    DhsContextT out;
    out.ap_total = static_cast<T>(kernels::Sum(n, ap.data()));
    out.ap_rowsum = ToDtype<T>(std::move(ap));
    if (h_ada != nullptr) {
      // h A_p = h - (h (Zᵀ)†) Zᵀ.
      const Tensor h_proj = h_ada->MatMul(zt_pinv).MatMulTransposed(z);
      Tensor corr = *h_ada;
      kernels::Axpy(n, -1.0, h_proj.data(), corr.data());
      out.ada_corr = ToDtype<T>(std::move(corr));
    }
    out.zt_pinv = ToDtype<T>(std::move(zt_pinv));
    out.z = ToDtype<T>(std::move(z));
    out.d = d;
    return out;
  }

  // The view the shared RHS kernels of core/dhs.h read.
  DhsView<T> View() const {
    DhsView<T> v;
    v.zt_pinv = zt_pinv.data();
    v.z = z.data();
    v.ap_rowsum = ap_rowsum.data();
    if (!ada_corr.empty()) v.ada_corr = ada_corr.data();
    v.ap_total = ap_total;
    v.n = zt_pinv.rows();
    v.d = d;
    return v;
  }
};

// S at the first observation by the forward DHS of Eq. 5 on the head's
// latents z (n x d_h), written into s[d_h]: DhsForward's value chain,
// softmax(z_0 Zᵀ / √d_h) Z.
void DhsForwardFirst(const Tensor& z, Scalar* s) {
  const Index n = z.rows(), d = z.cols();
  Tensor attn = Tensor::Uninit(Shape{1, n});
  kernels::GemmNT(1, d, n, z.data(), z.data(), attn.data());
  kernels::Scale(n, 1.0 / std::sqrt(static_cast<Scalar>(d)), attn.data());
  kernels::SoftmaxRows(1, n, attn.data(), attn.data());
  kernels::Gemm(1, n, d, attn.data(), z.data(), s);
}

// Everything the RHS and the readouts touch per step for one sequence.
template <typename T>
struct EncodedT {
  std::vector<DhsContextT<T>> heads;
  TensorT<T> h2;      // 1 x n (attention paths)
  TensorT<T> z_mean;  // 1 x d
  TensorT<T> y0;      // 1 x StateDim(), built in f64 and cast once
  std::vector<Scalar> norm_times;
  Scalar t_scale = 1.0;
  Scalar t_offset = 0.0;
};

}  // namespace

// The frozen serving snapshot of the layers the engine runs. Built from the
// model's current f64 parameters; a kF32 snapshot is taken after
// Module::Freeze has rounded them through float, so each cast is exact and a
// save → load → Freeze(kF32) round-trip rebuilds it bit-identically
// (tests/serialize_roundtrip_test.cc).
template <typename T>
struct ServingT {
  bool has_gru = false;
  nn::FrozenGru<T> gru;
  nn::FrozenMlp<T> mlp_encoder;
  nn::FrozenMlp<T> phi;
  nn::FrozenMlp<T> f_r;
  nn::FrozenLinear<T> w_r;
  nn::FrozenMlp<T> f_out_cls;
  nn::FrozenMlp<T> f_out_reg;
  TensorT<T> hippo_a_t;  // dc x dc (Aᵀ)
  TensorT<T> hippo_b_t;  // 1 x dc (Bᵀ)
  // The per-sequence heads, f64 at both precisions like the factorization
  // they feed.
  nn::FrozenLinear<Scalar> h2_head;
  nn::FrozenLinear<Scalar> h_ada_head;
  nn::FrozenLinear<Scalar> r_init;
};

// A friend of DiffOde so it can read the model's private layers, shapes and
// solver choice.
template <typename T>
class LockstepEngine {
 public:
  LockstepEngine(const DiffOde& model, const ServingT<T>& snap)
      : m_(model), snap_(snap), c_(model.config_) {}

  static std::shared_ptr<const ServingT<T>> Snapshot(const DiffOde& model) {
    auto snap = std::make_shared<ServingT<T>>();
    if (model.gru_encoder_) {
      snap->has_gru = true;
      snap->gru = nn::FrozenGru<T>::FromModule(*model.gru_encoder_);
    } else {
      snap->mlp_encoder = nn::FrozenMlp<T>::FromModule(*model.mlp_encoder_);
    }
    snap->phi = nn::FrozenMlp<T>::FromModule(*model.phi_);
    snap->f_r = nn::FrozenMlp<T>::FromModule(*model.f_r_);
    snap->w_r = nn::FrozenLinear<T>::FromModule(*model.w_r_);
    snap->f_out_cls = nn::FrozenMlp<T>::FromModule(*model.f_out_cls_);
    snap->f_out_reg = nn::FrozenMlp<T>::FromModule(*model.f_out_reg_);
    snap->hippo_a_t = ToDtype<T>(model.hippo_a_t_);
    snap->hippo_b_t = ToDtype<T>(model.hippo_b_t_);
    snap->h2_head = nn::FrozenLinear<Scalar>::FromModule(*model.h2_head_);
    snap->h_ada_head =
        nn::FrozenLinear<Scalar>::FromModule(*model.h_ada_head_);
    snap->r_init = nn::FrozenLinear<Scalar>::FromModule(*model.r_init_);
    return snap;
  }

  Tensor ClassifyLogits(const data::SequenceBatch& batch) const {
    const std::vector<EncodedT<T>> encs = Encode(batch);
    const Index b = batch.batch;
    std::vector<std::vector<Scalar>> queries(static_cast<std::size_t>(b));
    for (Index r = 0; r < b; ++r)
      queries[static_cast<std::size_t>(r)] =
          encs[static_cast<std::size_t>(r)].norm_times;
    const std::vector<std::vector<TensorT<T>>> states =
        StatesAt(encs, queries);
    const Index ro = m_.ReadoutDim();
    TensorT<T> x = TensorT<T>::Uninit(Shape{b, 2 * ro});
    // Per row: [mean-pooled readout ‖ final readout]. The pool is the
    // 1 x n GEMM by a 1/n row that DiffOde::ClassifyLogits runs on the tape.
    for (Index r = 0; r < b; ++r) {
      const std::vector<TensorT<T>>& st = states[static_cast<std::size_t>(r)];
      const Index n = static_cast<Index>(st.size());
      TensorT<T> readout = TensorT<T>::Uninit(Shape{n, ro});
      for (std::size_t i = 0; i < st.size(); ++i)
        ReadInto(encs[static_cast<std::size_t>(r)], st[i].data(),
                 readout.data() + static_cast<Index>(i) * ro);
      const TensorT<T> pool =
          TensorT<T>::Full(Shape{1, n}, static_cast<T>(1.0 / n));
      T* dst = x.data() + r * 2 * ro;
      kernels::Gemm(1, n, ro, pool.data(), readout.data(), dst);
      std::copy_n(readout.data() + (n - 1) * ro, ro, dst + ro);
    }
    return ToF64<T>(snap_.f_out_cls.Forward(x));
  }

  std::vector<std::vector<Tensor>> PredictAt(
      const data::SequenceBatch& batch,
      const std::vector<std::vector<Scalar>>& times) const {
    DIFFODE_CHECK_EQ(static_cast<Index>(times.size()), batch.batch);
    const std::vector<EncodedT<T>> encs = Encode(batch);
    const Index b = batch.batch;
    std::vector<std::vector<Scalar>> norm(static_cast<std::size_t>(b));
    for (Index r = 0; r < b; ++r) {
      const EncodedT<T>& enc = encs[static_cast<std::size_t>(r)];
      auto& dst = norm[static_cast<std::size_t>(r)];
      dst.reserve(times[static_cast<std::size_t>(r)].size());
      for (Scalar t : times[static_cast<std::size_t>(r)])
        dst.push_back((t - enc.t_offset) * enc.t_scale);
    }
    const std::vector<std::vector<TensorT<T>>> states = StatesAt(encs, norm);
    std::vector<std::vector<Tensor>> out(static_cast<std::size_t>(b));
    Index pairs = 0;
    for (const auto& st : states) pairs += static_cast<Index>(st.size());
    if (pairs == 0) return out;
    // One head application over [readout ‖ t] of every (row, query) pair,
    // stacked row after row: at B = 1, the matrix DiffOde::PredictAt builds.
    const Index ro = m_.ReadoutDim();
    TensorT<T> x = TensorT<T>::Uninit(Shape{pairs, ro + 1});
    T* row = x.data();
    for (std::size_t r = 0; r < out.size(); ++r)
      for (std::size_t k = 0; k < norm[r].size(); ++k, row += ro + 1) {
        ReadInto(encs[r], states[r][k].data(), row);
        row[ro] = static_cast<T>(norm[r][k]);
      }
    const Tensor preds = ToF64<T>(snap_.f_out_reg.Forward(x));
    Index p = 0;
    for (std::size_t r = 0; r < out.size(); ++r)
      for (std::size_t k = 0; k < norm[r].size(); ++k)
        out[r].push_back(preds.Row(p++));
    return out;
  }

 private:
  // Encodes the batch over plain buffers: each row's encoder inputs are
  // written straight in T, the encoder runs in T (the GRU recurrence
  // advanced in lockstep across rows), then each row's f64 contexts and
  // initial state are built by BuildRow.
  std::vector<EncodedT<T>> Encode(const data::SequenceBatch& batch) const {
    const Index b = batch.batch;
    const Index d = c_.latent_dim;
    const Index enc_in = 2 * c_.input_dim + 2;
    DIFFODE_CHECK_EQ(batch.features, c_.input_dim);
    std::vector<EncodedT<T>> encs(static_cast<std::size_t>(b));
    std::vector<TensorT<T>> x(static_cast<std::size_t>(b));
    Index max_n = 0;
    for (Index r = 0; r < b; ++r) {
      const data::IrregularSeries& s =
          *batch.series[static_cast<std::size_t>(r)];
      DIFFODE_CHECK_GE(s.length(), 2);
      DIFFODE_CHECK_EQ(s.num_features(), c_.input_dim);
      TensorT<T>& xr = x[static_cast<std::size_t>(r)];
      xr = TensorT<T>::Uninit(Shape{s.length(), enc_in});
      data::EncoderInputs in =
          data::FeaturizeInto(s, DiffOde::kSpan, xr.data());
      EncodedT<T>& enc = encs[static_cast<std::size_t>(r)];
      enc.norm_times = std::move(in.norm_times);
      enc.t_scale = in.t_scale;
      enc.t_offset = in.t_offset;
      max_n = std::max(max_n, s.length());
    }
    std::vector<TensorT<T>> z_rows(static_cast<std::size_t>(b));
    if (snap_.has_gru) {
      // The GRU recurrence is indexed by observation number, not time, so
      // all rows advance one observation per wave: gather the still-active
      // rows, run one GRU step at GEMM shape m = E, scatter back.
      for (Index r = 0; r < b; ++r)
        z_rows[static_cast<std::size_t>(r)] = TensorT<T>::Uninit(
            Shape{batch.lengths[static_cast<std::size_t>(r)], d});
      TensorT<T> h_all(Shape{b, d});  // zeros, as GruCell::InitialState
      std::vector<Index> active;
      for (Index i = 0; i < max_n; ++i) {
        active.clear();
        for (Index r = 0; r < b; ++r)
          if (i < batch.lengths[static_cast<std::size_t>(r)])
            active.push_back(r);
        const Index e = static_cast<Index>(active.size());
        TensorT<T> x_step = TensorT<T>::Uninit(Shape{e, enc_in});
        for (Index j = 0; j < e; ++j)
          std::copy_n(x[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])]
                              .data() +
                          i * enc_in,
                      enc_in, x_step.data() + j * enc_in);
        TensorT<T> h_step = TensorT<T>::Uninit(Shape{e, d});
        kernels::SelectRows(e, d, active.data(), h_all.data(), h_step.data());
        const TensorT<T> h_new = snap_.gru.Forward(x_step, h_step);
        kernels::ScatterRows(e, d, active.data(), h_new.data(), h_all.data());
        for (Index j = 0; j < e; ++j)
          std::copy_n(h_new.data() + j * d, d,
                      z_rows[static_cast<std::size_t>(
                                 active[static_cast<std::size_t>(j)])]
                              .data() +
                          i * d);
      }
    } else {
      for (Index r = 0; r < b; ++r)
        z_rows[static_cast<std::size_t>(r)] =
            snap_.mlp_encoder.Forward(x[static_cast<std::size_t>(r)]);
    }
    // The per-row builds are independent, so they shard across the
    // deterministic pool; the buffer pool is thread-local, so every chunk
    // opens its own scope.
    parallel::ParallelFor(0, b, 1, [&](Index r0, Index r1) {
      tensor::BufferPool::Scope pool;
      for (Index r = r0; r < r1; ++r)
        BuildRow(ToF64<T>(std::move(z_rows[static_cast<std::size_t>(r)])),
                 &encs[static_cast<std::size_t>(r)]);
    });
    return encs;
  }

  // One row's per-head factorizations, h2, z̄ and initial state from its f64
  // latents z (n x d): the values DiffOde::BuildContexts and InitialState
  // compute on the tape, in the same kernels calls and operand order, so
  // the engine at B = 1 stays bitwise the per-sequence path.
  void BuildRow(Tensor z, EncodedT<T>* out) const {
    const Index n = z.rows();
    const Index d = c_.latent_dim;
    const Index sd = m_.StateDim();
    // z̄ = (1/n) 1ᵀ Z, and r0 = tanh(r_init(z̄)) at the end of the state.
    const Tensor z_mean =
        Tensor::Full(Shape{1, n}, 1.0 / static_cast<Scalar>(n)).MatMul(z);
    Tensor y0(Shape{1, sd});  // the HiPPO coefficients c0 start at zero
    if (!c_.use_attention || c_.head != OutputHead::kDirect) {
      const Tensor r0 = snap_.r_init.Forward(z_mean);
      kernels::MapTanh(c_.info_dim, r0.data(), y0.data() + sd - c_.info_dim);
    }
    if (c_.use_attention) {
      // The free vectors, 1 x n (a Linear's n x 1 output read as a row).
      Tensor h2 = snap_.h2_head.Forward(z).Reshaped(Shape{1, n});
      Tensor h_ada;
      if (c_.pt_strategy == sparsity::PtStrategy::kAdaH)
        h_ada = snap_.h_ada_head.Forward(z).Reshaped(Shape{1, n});
      const Index heads = c_.num_heads;
      const Index dh = d / heads;
      out->heads.reserve(static_cast<std::size_t>(heads));
      for (Index hidx = 0; hidx < heads; ++hidx) {
        Tensor z_h = heads == 1 ? std::move(z) : SliceCols(z, hidx * dh, dh);
        // S0 of this head, at its columns of the state.
        DhsForwardFirst(z_h, y0.data() + hidx * dh);
        out->heads.push_back(DhsContextT<T>::Build(
            std::move(z_h), c_.ridge, h_ada.empty() ? nullptr : &h_ada));
      }
      out->h2 = ToDtype<T>(std::move(h2));
    }
    out->z_mean = ToDtype<T>(z_mean);
    out->y0 = ToDtype<T>(std::move(y0));
  }

  // Columns [begin, begin + count) of m.
  static Tensor SliceCols(const Tensor& m, Index begin, Index count) {
    Tensor out = Tensor::Uninit(Shape{m.rows(), count});
    for (Index i = 0; i < m.rows(); ++i)
      std::copy_n(m.data() + i * m.cols() + begin, count,
                  out.data() + i * count);
    return out;
  }

  // States for every (row, query-time) pair via one lockstep integration;
  // out[r][k] is the 1 x StateDim() state of row r at norm_queries[r][k].
  std::vector<std::vector<TensorT<T>>> StatesAt(
      const std::vector<EncodedT<T>>& encs,
      const std::vector<std::vector<Scalar>>& norm_queries) const {
    const Index b = static_cast<Index>(encs.size());
    const Index sd = m_.StateDim();

    // The one DIFFODE timeline (core/batch_plans.h), which the tape forward
    // DiffOde::StatesAt walks too: the queries' grid, with no anchors.
    const BatchPlans bp = BuildBatchPlans(
        norm_queries,
        std::vector<const std::vector<Scalar>*>(static_cast<std::size_t>(b)),
        c_.step);

    // The carried state is f64 (see ode::LockstepIntegrate).
    const Index rows_total = static_cast<Index>(bp.plans.size());
    Tensor y = Tensor::Uninit(Shape{rows_total, sd});
    for (Index r = 0; r < b; ++r) {
      const TensorT<T>& y0 = encs[static_cast<std::size_t>(r)].y0;
      std::copy_n(y0.data(), sd, y.data() + r * sd);
      const Index br = bp.back_row[static_cast<std::size_t>(r)];
      if (br >= 0) std::copy_n(y0.data(), sd, y.data() + br * sd);
    }

    // The RHS is DiffOdeRhs (core/dhs.h) over the snapshot's layers. Each
    // row reads its sequence's head views, h2 and z̄; the flat p buffer is
    // strided by the longest context across the batch.
    Index max_n = 1;
    for (const EncodedT<T>& e : encs)
      if (!e.heads.empty())
        max_n = std::max(max_n, e.heads.front().zt_pinv.rows());
    std::vector<std::vector<DhsView<T>>> views(static_cast<std::size_t>(b));
    std::vector<RhsRow<T>> enc_rows(static_cast<std::size_t>(b));
    for (Index r = 0; r < b; ++r) {
      const EncodedT<T>& e = encs[static_cast<std::size_t>(r)];
      auto& vr = views[static_cast<std::size_t>(r)];
      for (const DhsContextT<T>& head : e.heads) vr.push_back(head.View());
      RhsRow<T>& row = enc_rows[static_cast<std::size_t>(r)];
      row.heads = vr.data();
      row.h2 = e.h2.data();
      row.z_mean = e.z_mean.data();
    }
    std::vector<const RhsRow<T>*> plan_rows;
    plan_rows.reserve(bp.orig_of_row.size());
    for (Index orig : bp.orig_of_row)
      plan_rows.push_back(&enc_rows[static_cast<std::size_t>(orig)]);
    const RhsDims dims = m_.RhsShape();
    const RhsWeights<T> weights = Weights();
    // The saved and scratch regions are reused across RK stages and resized
    // only when the active-row count changes.
    RhsLayout lay;
    std::vector<T> saved, scratch;
    Index cached_a = -1;

    const ode::BatchedRhsT<T> rhs = [&](const std::vector<Index>& rows,
                                        const std::vector<Scalar>& tt,
                                        const TensorT<T>& ya) -> TensorT<T> {
      const Index a = static_cast<Index>(rows.size());
      if (cached_a != a) {
        cached_a = a;
        lay = RhsLayout(dims, a, max_n);
        saved.resize(static_cast<std::size_t>(lay.saved_size));
        scratch.resize(static_cast<std::size_t>(lay.scratch_size));
      }
      TensorT<T> k_out = TensorT<T>::Uninit(Shape{a, sd});
      DiffOdeRhs(
          dims, weights, lay, a,
          [&](Index i) -> const RhsRow<T>& {
            return *plan_rows[static_cast<std::size_t>(
                rows[static_cast<std::size_t>(i)])];
          },
          tt.data(), ya.data(), saved.data(), scratch.data(), k_out.data());
      return k_out;
    };

    std::vector<std::vector<TensorT<T>>> slot_states(
        static_cast<std::size_t>(b));
    for (Index r = 0; r < b; ++r)
      slot_states[static_cast<std::size_t>(r)].resize(
          bp.slots[static_cast<std::size_t>(r)].size());
    const ode::LockstepEventFn on_event =
        [&](const std::vector<ode::LockstepEvent>& events, Tensor* yp) {
          for (const ode::LockstepEvent& e : events)
            slot_states[static_cast<std::size_t>(
                bp.orig_of_row[static_cast<std::size_t>(e.row)])]
                       [static_cast<std::size_t>(e.tag)] =
                ToDtype<T>(yp->Row(e.row));
        };
    ode::LockstepIntegrate<T>(bp.plans, m_.diff_method_, rhs, on_event, &y);

    std::vector<std::vector<TensorT<T>>> out(static_cast<std::size_t>(b));
    for (Index r = 0; r < b; ++r) {
      auto& dst = out[static_cast<std::size_t>(r)];
      for (Index slot : bp.query_slots[static_cast<std::size_t>(r)])
        dst.push_back(slot_states[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(slot)]);
    }
    return out;
  }

  // The snapshot's RHS layers as DiffOdeRhs reads them; φ and f_r are the
  // two-layer tanh MLPs DiffOde builds.
  RhsWeights<T> Weights() const {
    const auto dense = [](const nn::FrozenLinear<T>& l) {
      return DenseView<T>{l.w.data(), l.b.data()};
    };
    DIFFODE_CHECK_EQ(snap_.phi.layers.size(), 2u);
    DIFFODE_CHECK_EQ(snap_.f_r.layers.size(), 2u);
    RhsWeights<T> wt;
    wt.phi1 = dense(snap_.phi.layers[0]);
    wt.phi2 = dense(snap_.phi.layers[1]);
    wt.fr1 = dense(snap_.f_r.layers[0]);
    wt.fr2 = dense(snap_.f_r.layers[1]);
    wt.wr = dense(snap_.w_r);
    wt.hippo_a_t = snap_.hippo_a_t.data();
    wt.hippo_b_t = snap_.hippo_b_t.data();
    return wt;
  }

  // The readout input of one state ([S | r], S, or [z̄ | r], as
  // DiffOde::ReadoutInput) written into dst[ReadoutDim()].
  void ReadInto(const EncodedT<T>& enc, const T* state, T* dst) const {
    const Index d = c_.latent_dim;
    const Index dc = c_.hippo_dim;
    const Index dr = c_.info_dim;
    if (!c_.use_attention) {
      std::copy_n(enc.z_mean.data(), d, dst);
      std::copy_n(state + dc, dr, dst + d);
    } else if (c_.head == OutputHead::kDirect) {
      std::copy_n(state, m_.StateDim(), dst);
    } else {
      std::copy_n(state, d, dst);
      std::copy_n(state + d + dc, dr, dst + d);
    }
  }

  const DiffOde& m_;
  const ServingT<T>& snap_;
  const DiffOdeConfig& c_;
};

void DiffOde::OnFrozen(Precision precision) {
  serving_f32_ = nullptr;
  serving_f64_ = nullptr;
  if (precision == Precision::kF32)
    serving_f32_ = LockstepEngine<float>::Snapshot(*this);
  else
    serving_f64_ = LockstepEngine<Scalar>::Snapshot(*this);
}

// Both entry points open the calling thread's buffer pool scope, so every
// caller's engine temporaries recycle instead of taking the heap. An
// unfrozen model snapshots its current f64 weights per call.
Tensor DiffOde::ClassifyLogitsBatched(const data::SequenceBatch& batch) {
  tensor::BufferPool::Scope pool;
  ag::NoGradScope no_grad;
  if (serving_f32_)
    return LockstepEngine<float>(*this, *serving_f32_).ClassifyLogits(batch);
  const auto snap =
      serving_f64_ ? serving_f64_ : LockstepEngine<Scalar>::Snapshot(*this);
  return LockstepEngine<Scalar>(*this, *snap).ClassifyLogits(batch);
}

std::vector<std::vector<Tensor>> DiffOde::PredictAtBatched(
    const data::SequenceBatch& batch,
    const std::vector<std::vector<Scalar>>& times) {
  tensor::BufferPool::Scope pool;
  ag::NoGradScope no_grad;
  if (serving_f32_)
    return LockstepEngine<float>(*this, *serving_f32_).PredictAt(batch, times);
  const auto snap =
      serving_f64_ ? serving_f64_ : LockstepEngine<Scalar>::Snapshot(*this);
  return LockstepEngine<Scalar>(*this, *snap).PredictAt(batch, times);
}

}  // namespace diffode::core

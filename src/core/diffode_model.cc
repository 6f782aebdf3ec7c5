#include "core/diffode_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "data/encoding.h"
#include "hippo/hippo.h"

namespace diffode::core {
namespace {

// Normalized integration span: the context's observation window maps to
// [0, kSpan], matching the paper's synthetic-time scale so one integration
// step size works across datasets.
constexpr Scalar kSpan = 10.0;

}  // namespace

DiffOde::DiffOde(const DiffOdeConfig& config)
    : config_(config), rng_(config.seed) {
  DIFFODE_CHECK_GT(config_.latent_dim, 0);
  DIFFODE_CHECK_EQ(config_.latent_dim % config_.num_heads, 0);
  const Index f = config_.input_dim;
  const Index d = config_.latent_dim;
  const Index enc_in = 2 * f + 2;  // [x*m, m, t, dt]
  if (config_.encoder == EncoderType::kGru) {
    gru_encoder_ = std::make_unique<nn::GruCell>(enc_in, d, rng_);
  } else {
    mlp_encoder_ = std::make_unique<nn::Mlp>(
        std::vector<Index>{enc_in, config_.mlp_hidden, d}, rng_);
  }
  phi_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{d + 1, config_.mlp_hidden, d}, rng_);
  h2_head_ = std::make_unique<nn::Linear>(d, 1, rng_);
  h_ada_head_ = std::make_unique<nn::Linear>(d, 1, rng_);
  f_r_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{d + config_.hippo_dim + config_.info_dim,
                         config_.mlp_hidden, config_.info_dim},
      rng_);
  w_r_ = std::make_unique<nn::Linear>(config_.info_dim, 1, rng_);
  r_init_ = std::make_unique<nn::Linear>(d, config_.info_dim, rng_);
  // Classification sees the DHS "at all integration time points"
  // (Sec. III-D): a mean-pool over the trajectory plus the final state.
  f_out_cls_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{2 * ReadoutDim(), config_.mlp_hidden,
                         config_.num_classes},
      rng_);
  // The regression head additionally receives the (normalized) query time,
  // like every baseline's decoder.
  f_out_reg_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{ReadoutDim() + 1, config_.mlp_hidden, f}, rng_);
  Scalar timescale = config_.hippo_timescale;
  if (timescale <= 0.0)
    timescale = static_cast<Scalar>(config_.hippo_dim) * config_.step;
  timescale = std::max(timescale, 1e-3);
  hippo_a_ = hippo::MakeLegsA(config_.hippo_dim) * (1.0 / timescale);
  hippo_a_t_ = hippo_a_.Transposed();
  hippo_b_t_ =
      hippo::MakeLegsB(config_.hippo_dim).Transposed() * (1.0 / timescale);
}

Index DiffOde::StateDim() const {
  if (!config_.use_attention) return config_.hippo_dim + config_.info_dim;
  if (config_.head == OutputHead::kDirect) return config_.latent_dim;
  return config_.latent_dim + config_.hippo_dim + config_.info_dim;
}

Index DiffOde::ReadoutDim() const {
  if (!config_.use_attention) return config_.latent_dim + config_.info_dim;
  if (config_.head == OutputHead::kDirect) return config_.latent_dim;
  return config_.latent_dim + config_.info_dim;
}

DiffOde::Encoded DiffOde::Encode(const data::IrregularSeries& context) const {
  const Index n = context.length();
  DIFFODE_CHECK_GE(n, 2);
  const Index f = config_.input_dim;
  DIFFODE_CHECK_EQ(context.num_features(), f);
  Encoded enc;
  data::EncoderInputs encoded = data::BuildEncoderInputs(context, kSpan);
  const Tensor& inputs = encoded.inputs;
  enc.t_scale = encoded.t_scale;
  enc.t_offset = encoded.t_offset;
  enc.norm_times = encoded.norm_times;
  if (gru_encoder_) {
    ag::Var h = gru_encoder_->InitialState(1);
    std::vector<ag::Var> rows;
    rows.reserve(static_cast<std::size_t>(n));
    ag::Var x_all = ag::Constant(inputs);
    for (Index i = 0; i < n; ++i) {
      h = gru_encoder_->Forward(ag::SliceRows(x_all, i, 1), h);
      rows.push_back(h);
    }
    enc.z = ag::ConcatRows(rows);
  } else {
    enc.z = mlp_encoder_->Forward(ag::Constant(inputs));
  }
  BuildContexts(&enc);
  return enc;
}

void DiffOde::BuildContexts(Encoded* enc_ptr) const {
  Encoded& enc = *enc_ptr;
  const Index n = enc.z.rows();
  if (config_.use_attention) {
    const Index dh = config_.latent_dim / config_.num_heads;
    for (Index hidx = 0; hidx < config_.num_heads; ++hidx) {
      ag::Var z_h = config_.num_heads == 1
                        ? enc.z
                        : ag::SliceCols(enc.z, hidx * dh, dh);
      enc.heads.push_back(BuildDhsContext(z_h, config_.ridge));
    }
    enc.h2 = ag::Transpose(h2_head_->Forward(enc.z));  // 1 x n
    if (config_.pt_strategy == sparsity::PtStrategy::kAdaH) {
      enc.h_ada = ag::Transpose(h_ada_head_->Forward(enc.z));
      // The adaH correction h A_p depends only on the sequence, not the
      // solver state: build it once here, reuse in every RecoverPVar.
      for (auto& head : enc.heads) CacheAdaHCorrection(&head, enc.h_ada);
    }
  }
  // Mean latent code; used by the w/o-attention ablation path.
  enc.z_mean = ag::MatMul(
      ag::Constant(Tensor::Full(Shape{1, n}, 1.0 / static_cast<Scalar>(n))),
      enc.z);
  if (config_.use_attention && config_.hoyer_weight > 0.0 && n > 1 &&
      ag::GradMode::IsEnabled()) {
    // The Hoyer term only feeds the training loss; under no-grad forwards
    // (evaluation, serving) it is never read, so skip building it.
    // Maximize the mean Hoyer sparsity of the forward attention rows.
    // Rows of softmax sum to 1, so Hoyer(p) = (√n − 1/‖p‖) / (√n − 1) and
    // the per-row norm is all that's needed.
    const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(config_.latent_dim));
    ag::Var logits =
        ag::MulScalar(ag::MatMulNT(enc.z, enc.z), scale);
    ag::Var p = ag::Softmax(logits);                       // n x n
    ag::Var row_sq = ag::MatMul(ag::Mul(p, p),
                                ag::Constant(Tensor::Ones(Shape{n, 1})));
    ag::Var inv_norms =
        ag::Div(ag::Constant(Tensor::Ones(Shape{n, 1})), ag::Sqrt(row_sq));
    const Scalar sqrt_n = std::sqrt(static_cast<Scalar>(n));
    // 1 − mean Hoyer = (mean(1/‖p‖) − 1) / (√n − 1).
    ag::Var one_minus_hoyer = ag::MulScalar(
        ag::AddScalar(ag::Mean(inv_norms), -1.0), 1.0 / (sqrt_n - 1.0));
    ag::Var term = ag::MulScalar(one_minus_hoyer, config_.hoyer_weight);
    AddAuxiliaryLoss(term);
  }
}

void DiffOde::AddAuxiliaryLoss(const ag::Var& term) const {
  std::lock_guard<std::mutex> lock(aux_mu_);
  ag::Var& slot = aux_loss_[std::this_thread::get_id()];
  slot = slot.defined() ? ag::Add(slot, term) : term;
}

ag::Var DiffOde::InitialState(const Encoded& enc) const {
  // The information state r starts from a learned summary of the encoded
  // context (z̄) rather than zero, so station/patient identity does not have
  // to squeeze through the DHS bottleneck during the rollout.
  ag::Var r0 = ag::Tanh(r_init_->Forward(enc.z_mean));
  if (!config_.use_attention) {
    ag::Var c0 = ag::Constant(Tensor(Shape{1, config_.hippo_dim}));
    return ag::ConcatCols({c0, r0});
  }
  // S at the first observation via the forward DHS (Eq. 5).
  const Index dh = config_.latent_dim / config_.num_heads;
  ag::Var zq = ag::SliceRows(enc.z, 0, 1);
  std::vector<ag::Var> s_heads;
  for (Index hidx = 0; hidx < config_.num_heads; ++hidx) {
    ag::Var zq_h =
        config_.num_heads == 1 ? zq : ag::SliceCols(zq, hidx * dh, dh);
    s_heads.push_back(
        DhsForward(enc.heads[static_cast<std::size_t>(hidx)], zq_h));
  }
  ag::Var s0 = config_.num_heads == 1 ? s_heads[0] : ag::ConcatCols(s_heads);
  if (config_.head == OutputHead::kDirect) return s0;
  ag::Var c0 = ag::Constant(Tensor(Shape{1, config_.hippo_dim}));
  return ag::ConcatCols({s0, c0, r0});
}

ode::DiffOdeFunc DiffOde::Dynamics(const Encoded& enc) const {
  const Index d = config_.latent_dim;
  const Index dc = config_.hippo_dim;
  const Index dr = config_.info_dim;
  ag::Var a_t = ag::Constant(hippo_a_t_);
  ag::Var b_t = ag::Constant(hippo_b_t_);
  if (!config_.use_attention) {
    // HiPPO-RNN-like ablation: dc = A c + B (W_r r), dr = f_r([z̄|c|r]).
    return [this, enc, a_t, b_t, dc, dr](Scalar, const ag::Var& y) {
      ag::Var c = ag::SliceCols(y, 0, dc);
      ag::Var r = ag::SliceCols(y, dc, dr);
      ag::Var u_r = f_r_->Forward(ag::ConcatCols({enc.z_mean, c, r}));
      ag::Var dc_dt = ag::Add(ag::MatMul(c, a_t),
                              ag::MulByScalarVar(b_t, w_r_->Forward(r)));
      return ag::ConcatCols({dc_dt, u_r});
    };
  }
  const Index heads = config_.num_heads;
  const Index dh = d / heads;
  return [this, enc, a_t, b_t, d, dc, dr, heads, dh](Scalar t,
                                                     const ag::Var& y) {
    ag::Var s = heads == 1 && config_.head == OutputHead::kDirect
                    ? y
                    : ag::SliceCols(y, 0, d);
    // Invert the attention per head: p from S (Eq. 32), z from p (Eq. 34).
    std::vector<ag::Var> p_heads(static_cast<std::size_t>(heads));
    std::vector<ag::Var> z_heads(static_cast<std::size_t>(heads));
    for (Index hidx = 0; hidx < heads; ++hidx) {
      const DhsContext& ctx = enc.heads[static_cast<std::size_t>(hidx)];
      ag::Var s_h = heads == 1 ? s : ag::SliceCols(s, hidx * dh, dh);
      ag::Var p = RecoverPVar(ctx, s_h, config_.pt_strategy);
      p_heads[static_cast<std::size_t>(hidx)] = p;
      z_heads[static_cast<std::size_t>(hidx)] = RecoverZVar(ctx, p, enc.h2);
    }
    ag::Var z = heads == 1 ? z_heads[0] : ag::ConcatCols(z_heads);
    // w = φ(z, t): the learned dz/dt. The tanh bound keeps long rollouts
    // (extrapolation far past the observation window) from blowing up.
    ag::Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, t));
    ag::Var w = ag::Tanh(phi_->Forward(ag::ConcatCols({z, t_var})));
    std::vector<ag::Var> ds_heads(static_cast<std::size_t>(heads));
    for (Index hidx = 0; hidx < heads; ++hidx) {
      ag::Var w_h = heads == 1 ? w : ag::SliceCols(w, hidx * dh, dh);
      ds_heads[static_cast<std::size_t>(hidx)] =
          DhsDerivative(enc.heads[static_cast<std::size_t>(hidx)], w_h,
                        p_heads[static_cast<std::size_t>(hidx)]);
    }
    ag::Var ds = heads == 1 ? ds_heads[0] : ag::ConcatCols(ds_heads);
    if (config_.head == OutputHead::kDirect) return ds;
    // Coupled HiPPO system (Eq. 36).
    ag::Var c = ag::SliceCols(y, d, dc);
    ag::Var r = ag::SliceCols(y, d + dc, dr);
    ag::Var u_r = f_r_->Forward(ag::ConcatCols({s, c, r}));
    ag::Var dc_dt = ag::Add(ag::MatMul(c, a_t),
                            ag::MulByScalarVar(b_t, w_r_->Forward(r)));
    return ag::ConcatCols({ds, dc_dt, u_r});
  };
}

ag::Var DiffOde::ReadoutInput(const Encoded& enc, const ag::Var& state) const {
  const Index d = config_.latent_dim;
  const Index dc = config_.hippo_dim;
  const Index dr = config_.info_dim;
  if (!config_.use_attention) {
    return ag::ConcatCols({enc.z_mean, ag::SliceCols(state, dc, dr)});
  }
  if (config_.head == OutputHead::kDirect) return state;
  return ag::ConcatCols(
      {ag::SliceCols(state, 0, d), ag::SliceCols(state, d + dc, dr)});
}

std::vector<ag::Var> DiffOde::StatesAt(
    const Encoded& enc, const std::vector<Scalar>& norm_times) const {
  ode::DiffOdeFunc f = Dynamics(enc);
  ode::DiffSolveOptions options;
  options.method = diff_method_;
  options.step = config_.step;
  ag::Var y0 = InitialState(enc);
  const bool anchored =
      config_.use_attention && config_.consistency_weight > 0.0;
  // The consistency MSE itself is a training-only loss term, but the anchor
  // times it inserts into the grid change how IntegrateVar partitions each
  // span (the last step is clamped to the remaining distance). Keep the grid
  // insertion active in every mode and gate only the term computation, so
  // no-grad forwards stay bitwise identical to grad-on forwards.
  const bool anchor_terms = anchored && ag::GradMode::IsEnabled();
  // Sort unique query times; integrate a forward chain for t >= 0 and a
  // backward chain for t < 0 (queries before the first observation). When
  // the consistency term is on, the forward chain also visits every
  // observation time so S(t_i) can be pulled toward its Eq. 5 definition.
  std::map<Scalar, ag::Var> cache;
  std::vector<Scalar> sorted = norm_times;
  std::set<Scalar> anchor_times;
  if (anchored) {
    for (Scalar t : enc.norm_times) anchor_times.insert(t);
    sorted.insert(sorted.end(), enc.norm_times.begin(), enc.norm_times.end());
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Forward chain.
  {
    Scalar t_prev = 0.0;
    ag::Var y = y0;
    ag::Var anchor_acc;
    Index anchor_count = 0;
    const Index d = config_.latent_dim;
    const Index dh = d / config_.num_heads;
    for (Scalar t : sorted) {
      if (t < 0.0) continue;
      y = ode::IntegrateVar(f, y, t_prev, t, options);
      cache[t] = y;
      t_prev = t;
      if (anchor_terms && anchor_times.count(t)) {
        // Index of this observation in the context.
        const auto it = std::find(enc.norm_times.begin(),
                                  enc.norm_times.end(), t);
        const Index obs =
            static_cast<Index>(it - enc.norm_times.begin());
        ag::Var s_cur = config_.head == OutputHead::kDirect
                            ? y
                            : ag::SliceCols(y, 0, d);
        ag::Var zq = ag::SliceRows(enc.z, obs, 1);
        std::vector<ag::Var> anchor_heads;
        for (Index hidx = 0; hidx < config_.num_heads; ++hidx) {
          ag::Var zq_h = config_.num_heads == 1
                             ? zq
                             : ag::SliceCols(zq, hidx * dh, dh);
          anchor_heads.push_back(
              DhsForward(enc.heads[static_cast<std::size_t>(hidx)], zq_h));
        }
        ag::Var anchor = config_.num_heads == 1 ? anchor_heads[0]
                                                : ag::ConcatCols(anchor_heads);
        ag::Var term = ag::Mean(ag::Square(ag::Sub(s_cur, anchor)));
        anchor_acc = anchor_acc.defined() ? ag::Add(anchor_acc, term) : term;
        ++anchor_count;
      }
    }
    if (anchor_terms && anchor_count > 0) {
      ag::Var scaled = ag::MulScalar(
          anchor_acc,
          config_.consistency_weight / static_cast<Scalar>(anchor_count));
      AddAuxiliaryLoss(scaled);
    }
  }
  // Backward chain.
  {
    Scalar t_prev = 0.0;
    ag::Var y = y0;
    for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
      const Scalar t = *it;
      if (t >= 0.0) continue;
      y = ode::IntegrateVar(f, y, t_prev, t, options);
      cache[t] = y;
      t_prev = t;
    }
  }
  std::vector<ag::Var> out;
  out.reserve(norm_times.size());
  for (Scalar t : norm_times) out.push_back(cache.at(t));
  return out;
}

ag::Var DiffOde::ClassifyLogits(const data::IrregularSeries& context) {
  Encoded enc = Encode(context);
  std::vector<ag::Var> states = StatesAt(enc, enc.norm_times);
  // Mean-pool the readout inputs over all integration (observation) times —
  // "S refers to DHS at all integration time points" (Sec. III-D).
  ag::Var acc = ReadoutInput(enc, states[0]);
  for (std::size_t i = 1; i < states.size(); ++i)
    acc = ag::AddInPlace(acc, ReadoutInput(enc, states[i]));
  acc = ag::MulScalar(acc, 1.0 / static_cast<Scalar>(states.size()));
  ag::Var final_state = ReadoutInput(enc, states.back());
  return f_out_cls_->Forward(ag::ConcatCols({acc, final_state}));
}

std::vector<ag::Var> DiffOde::PredictAt(const data::IrregularSeries& context,
                                        const std::vector<Scalar>& times) {
  Encoded enc = Encode(context);
  std::vector<Scalar> norm;
  norm.reserve(times.size());
  for (Scalar t : times) norm.push_back((t - enc.t_offset) * enc.t_scale);
  std::vector<ag::Var> states = StatesAt(enc, norm);
  std::vector<ag::Var> preds;
  preds.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    ag::Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, norm[i]));
    preds.push_back(f_out_reg_->Forward(
        ag::ConcatCols({ReadoutInput(enc, states[i]), t_var})));
  }
  return preds;
}

Tensor DiffOde::LatentZ(const data::IrregularSeries& context) {
  return Encode(context).z.value();
}

void DiffOde::CollectParams(std::vector<ag::Var>* out) const {
  if (gru_encoder_) gru_encoder_->CollectParams(out);
  if (mlp_encoder_) mlp_encoder_->CollectParams(out);
  phi_->CollectParams(out);
  h2_head_->CollectParams(out);
  h_ada_head_->CollectParams(out);
  f_r_->CollectParams(out);
  w_r_->CollectParams(out);
  r_init_->CollectParams(out);
  f_out_cls_->CollectParams(out);
  f_out_reg_->CollectParams(out);
}

}  // namespace diffode::core

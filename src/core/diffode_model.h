#ifndef DIFFODE_CORE_DIFFODE_MODEL_H_
#define DIFFODE_CORE_DIFFODE_MODEL_H_

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batched_model.h"
#include "core/config.h"
#include "core/dhs.h"
#include "core/sequence_model.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "ode/diff_integrator.h"
#include "tensor/random.h"

namespace diffode::core {

// The lockstep serving engine and its frozen layer snapshot, templated on
// the RHS dtype (defined in diffode_lockstep.cc).
template <typename T>
struct ServingT;
template <typename T>
class LockstepEngine;

// The DIFFODE model (paper Secs. III-B to III-D):
//   encoder ψ  : observations -> latent codes Z (GRU with history, or MLP)
//   DHS        : S_t = softmax(z_t Zᵀ/√d) Z, with ODE dynamics obtained by
//                inverting the attention via generalized inverses (Eq. 32/34)
//   φ          : MLP modelling dz/dt
//   output     : HiPPO-coupled system (Eq. 36) or a direct readout of S_t
//
// The free vectors of the inversion (h₂ of Eq. 34 and h of the adaH
// ablation) must have the per-sequence length n, so they are produced by
// tiny trained linear maps applied row-wise to Z — the trained-vector
// semantics of the paper generalized to variable-length sequences.
class DiffOde : public SequenceModel, public BatchedSequenceModel {
 public:
  explicit DiffOde(const DiffOdeConfig& config);

  ag::Var ClassifyLogits(const data::IrregularSeries& context) override;
  std::vector<ag::Var> PredictAt(const data::IrregularSeries& context,
                                 const std::vector<Scalar>& times) override;
  // Lockstep batched forwards (diffode_lockstep.cc): all sequences advance
  // together along their own per-sequence step timelines, so the shared
  // MLPs (phi, f_r, heads) run at GEMM shape m = B while the per-row DHS
  // recoveries run the shared kernels of dhs.h. Serving/eval only: each
  // call opens its own NoGradScope and buffer-pool scope. The engine
  // computes in f64, or in float after Freeze(Precision::kF32); the DHS
  // factorization and the carried state stay f64 either way, and results
  // come back as f64.
  Tensor ClassifyLogitsBatched(const data::SequenceBatch& batch) override;
  std::vector<std::vector<Tensor>> PredictAtBatched(
      const data::SequenceBatch& batch,
      const std::vector<std::vector<Scalar>>& times) override;
  void CollectParams(std::vector<ag::Var>* out) const override;
  std::string name() const override { return "DIFFODE"; }
  // Takes (and clears) the aux loss accumulated by forwards on the *calling*
  // thread; under data-parallel training each shard collects only its own.
  ag::Var TakeAuxiliaryLoss() override {
    std::lock_guard<std::mutex> lock(aux_mu_);
    auto it = aux_loss_.find(std::this_thread::get_id());
    if (it == aux_loss_.end()) return ag::Var();
    ag::Var out = it->second;
    aux_loss_.erase(it);
    return out;
  }

  const DiffOdeConfig& config() const { return config_; }

  // Integration scheme for the unrolled (training) solver.
  void set_diff_method(ode::DiffMethod m) { diff_method_ = m; }

  // The latent matrix Z (n x d) for a context, evaluated with the current
  // weights — used by the Fig. 3 sparsity analysis.
  Tensor LatentZ(const data::IrregularSeries& context);

 private:
  struct Encoded {
    ag::Var z;                         // n x d
    std::vector<DhsContext> heads;     // per-head inversion contexts
    ag::Var h2;                        // 1 x n
    ag::Var h_ada;                     // 1 x n (adaH only)
    ag::Var z_mean;                    // 1 x d (w/o-attention path)
    std::vector<Scalar> norm_times;    // observation times, normalized
    Scalar t_scale = 1.0;              // maps raw time -> normalized
    Scalar t_offset = 0.0;
  };

  Encoded Encode(const data::IrregularSeries& context) const;
  // Everything Encode builds after the latent matrix Z: the per-head DHS
  // contexts, free vectors, z_mean, and (grad mode only) the Hoyer term.
  // Shared by the per-sequence and batched encoders.
  void BuildContexts(Encoded* enc) const;
  // Augmented initial state [S | c | r] (or [c | r] without attention).
  ag::Var InitialState(const Encoded& enc) const;
  // The RHS's shapes and switches (core/dhs.h), shared with the engine.
  RhsDims RhsShape() const;
  // Augmented dynamics over the encoded context: one RhsVar node per
  // evaluation. Reads `enc`, which must outlive the returned function.
  ode::DiffOdeFunc Dynamics(const Encoded& enc) const;
  // Readout input ([S | r], S, or [z̄ | r] depending on config).
  ag::Var ReadoutInput(const Encoded& enc, const ag::Var& state) const;
  // States at the given (normalized, may be unsorted) times; integrates
  // forward and backward from the first observation as needed.
  std::vector<ag::Var> StatesAt(const Encoded& enc,
                                const std::vector<Scalar>& norm_times) const;

  Index StateDim() const;
  Index ReadoutDim() const;

  // Builds the frozen serving snapshot at `precision`; runs after
  // Module::Freeze has rounded the parameters, so kF32 casts are exact
  // (diffode_lockstep.cc).
  void OnFrozen(Precision precision) override;

  // Adds a DHS consistency / sparsity term to this thread's aux loss.
  void AddAuxiliaryLoss(const ag::Var& term) const;

  DiffOdeConfig config_;
  mutable Rng rng_;
  ode::DiffMethod diff_method_ = ode::DiffMethod::kMidpoint;
  // Aux-loss terms from forwards, keyed by the thread that ran them so that
  // concurrent shards of a data-parallel batch never share tape state.
  mutable std::mutex aux_mu_;
  mutable std::unordered_map<std::thread::id, ag::Var> aux_loss_;

  std::unique_ptr<nn::GruCell> gru_encoder_;
  std::unique_ptr<nn::Mlp> mlp_encoder_;
  std::unique_ptr<nn::Mlp> phi_;        // (d+1) -> d
  std::unique_ptr<nn::Linear> h2_head_;    // d -> 1, rows of Z -> h2
  std::unique_ptr<nn::Linear> h_ada_head_; // d -> 1, rows of Z -> h (adaH)
  std::unique_ptr<nn::Mlp> f_r_;        // (d + d_c + d_r) -> d_r
  std::unique_ptr<nn::Linear> w_r_;     // d_r -> 1
  std::unique_ptr<nn::Linear> r_init_;  // d -> d_r, r_0 from the encoder
  std::unique_ptr<nn::Mlp> f_out_cls_;  // readout -> num_classes
  std::unique_ptr<nn::Mlp> f_out_reg_;  // readout -> f
  Tensor hippo_a_;    // d_c x d_c (LegS, stable)
  Tensor hippo_a_t_;  // Aᵀ, cached so Dynamics never re-transposes
  Tensor hippo_b_t_;  // 1 x d_c (Bᵀ)

  // Frozen serving snapshots; at most one is set, by the last Freeze. An
  // f32 snapshot routes the batched forwards to LockstepEngine<float>, a
  // friend so it can reuse the private context/initial-state builds.
  template <typename T>
  friend class LockstepEngine;
  std::shared_ptr<const ServingT<float>> serving_f32_;
  std::shared_ptr<const ServingT<Scalar>> serving_f64_;
};

}  // namespace diffode::core

#endif  // DIFFODE_CORE_DIFFODE_MODEL_H_

#ifndef DIFFODE_BASELINES_JUMP_ODE_BASE_H_
#define DIFFODE_BASELINES_JUMP_ODE_BASE_H_

#include <memory>

#include "baselines/baseline_config.h"
#include "core/sequence_model.h"
#include "data/encoding.h"
#include "nn/mlp.h"
#include "ode/diff_integrator.h"
#include "tensor/random.h"

namespace diffode::baselines {

// Shared machinery for the "discrete update" family of neural-ODE baselines
// (ODE-RNN, GRU-ODE-Bayes, PolyODE): a latent state evolves continuously
// between observations under ContinuousDynamics() and jumps through
// JumpUpdate() at each observation. Queries are answered by evolving the
// state from the nearest preceding observation — exactly the fragmented
// latent process of the paper's Fig. 1(a).
class JumpOdeBase : public core::SequenceModel {
 public:
  ag::Var ClassifyLogits(const data::IrregularSeries& context) override;
  std::vector<ag::Var> PredictAt(const data::IrregularSeries& context,
                                 const std::vector<Scalar>& times) override;
  void CollectParams(std::vector<ag::Var>* out) const override;

 protected:
  JumpOdeBase(const BaselineConfig& config, Index state_dim);

  virtual ode::DiffOdeFunc ContinuousDynamics() const = 0;
  virtual ag::Var JumpUpdate(const ag::Var& row, const ag::Var& state) const = 0;
  // Derived classes append their own parameters.
  virtual void CollectOwnParams(std::vector<ag::Var>* out) const = 0;

  const BaselineConfig& config() const { return config_; }
  Rng& rng() const { return rng_; }

 private:
  struct Trace {
    data::EncoderInputs enc;
    std::vector<ag::Var> post_jump_states;  // state after each observation
  };

  Trace Process(const data::IrregularSeries& context) const;
  ag::Var StateAt(const Trace& trace, Scalar norm_t) const;

  BaselineConfig config_;
  mutable Rng rng_;
  Index state_dim_;
  std::unique_ptr<nn::Mlp> cls_head_;
  std::unique_ptr<nn::Mlp> reg_head_;
};

}  // namespace diffode::baselines

#endif  // DIFFODE_BASELINES_JUMP_ODE_BASE_H_

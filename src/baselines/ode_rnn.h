#ifndef DIFFODE_BASELINES_ODE_RNN_H_
#define DIFFODE_BASELINES_ODE_RNN_H_

#include <memory>

#include "baselines/jump_ode_base.h"
#include "nn/gru.h"

namespace diffode::baselines {

// ODE-RNN (Rubanova et al. 2019): hidden state evolves by a learned ODE
// between observations and is updated by a GRU cell at each observation.
class OdeRnnBaseline : public JumpOdeBase {
 public:
  explicit OdeRnnBaseline(const BaselineConfig& config)
      : JumpOdeBase(config, config.hidden_dim) {
    dynamics_ = std::make_unique<nn::Mlp>(
        std::vector<Index>{config.hidden_dim, config.mlp_hidden,
                           config.hidden_dim},
        rng());
    cell_ = std::make_unique<nn::GruCell>(2 * config.input_dim + 2,
                                          config.hidden_dim, rng());
  }

  std::string name() const override { return "ODE-RNN"; }

 protected:
  ode::DiffOdeFunc ContinuousDynamics() const override {
    return [this](Scalar, const ag::Var& h) { return dynamics_->Forward(h); };
  }

  ag::Var JumpUpdate(const ag::Var& row, const ag::Var& state) const override {
    return cell_->Forward(row, state);
  }

  void CollectOwnParams(std::vector<ag::Var>* out) const override {
    dynamics_->CollectParams(out);
    cell_->CollectParams(out);
  }

 private:
  std::unique_ptr<nn::Mlp> dynamics_;
  std::unique_ptr<nn::GruCell> cell_;
};

}  // namespace diffode::baselines

#endif  // DIFFODE_BASELINES_ODE_RNN_H_

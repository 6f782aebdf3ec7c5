#include "baselines/jump_ode_base.h"

#include "autograd/ops.h"

namespace diffode::baselines {

JumpOdeBase::JumpOdeBase(const BaselineConfig& config, Index state_dim)
    : config_(config), rng_(config.seed), state_dim_(state_dim) {
  cls_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{state_dim_, config_.mlp_hidden, config_.num_classes},
      rng_);
  reg_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{state_dim_ + 1, config_.mlp_hidden,
                         config_.input_dim},
      rng_);
}

JumpOdeBase::Trace JumpOdeBase::Process(
    const data::IrregularSeries& context) const {
  Trace trace;
  trace.enc = data::BuildEncoderInputs(context);
  ode::DiffOdeFunc f = ContinuousDynamics();
  ode::DiffSolveOptions options;
  options.method = ode::DiffMethod::kMidpoint;
  options.step = config_.step;
  ag::Var x = ag::Constant(trace.enc.inputs);
  ag::Var state = ag::Constant(Tensor(Shape{1, state_dim_}));
  Scalar t_prev = trace.enc.norm_times.front();
  for (Index i = 0; i < context.length(); ++i) {
    const Scalar t = trace.enc.norm_times[static_cast<std::size_t>(i)];
    if (t > t_prev) state = ode::IntegrateVar(f, state, t_prev, t, options);
    state = JumpUpdate(ag::SliceRows(x, i, 1), state);
    trace.post_jump_states.push_back(state);
    t_prev = t;
  }
  return trace;
}

ag::Var JumpOdeBase::StateAt(const Trace& trace, Scalar norm_t) const {
  // Nearest observation at or before the query; the first one for queries
  // before the context (integrated backwards).
  const auto& times = trace.enc.norm_times;
  Index anchor = 0;
  for (std::size_t i = 0; i < times.size(); ++i)
    if (times[i] <= norm_t) anchor = static_cast<Index>(i);
  ode::DiffSolveOptions options;
  options.method = ode::DiffMethod::kMidpoint;
  options.step = config_.step;
  return ode::IntegrateVar(ContinuousDynamics(),
                           trace.post_jump_states[static_cast<std::size_t>(anchor)],
                           times[static_cast<std::size_t>(anchor)], norm_t,
                           options);
}

ag::Var JumpOdeBase::ClassifyLogits(const data::IrregularSeries& context) {
  Trace trace = Process(context);
  return cls_head_->Forward(trace.post_jump_states.back());
}

std::vector<ag::Var> JumpOdeBase::PredictAt(
    const data::IrregularSeries& context, const std::vector<Scalar>& times) {
  Trace trace = Process(context);
  std::vector<ag::Var> preds;
  preds.reserve(times.size());
  for (Scalar t : times) {
    const Scalar norm_t = trace.enc.Normalize(t);
    ag::Var state = StateAt(trace, norm_t);
    ag::Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, norm_t));
    preds.push_back(reg_head_->Forward(ag::ConcatCols({state, t_var})));
  }
  return preds;
}

void JumpOdeBase::CollectParams(std::vector<ag::Var>* out) const {
  cls_head_->CollectParams(out);
  reg_head_->CollectParams(out);
  CollectOwnParams(out);
}

}  // namespace diffode::baselines

#include "baselines/latent_ode.h"

#include <algorithm>
#include <utility>

#include "autograd/ops.h"
#include "data/encoding.h"
#include "ode/diff_integrator.h"

namespace diffode::baselines {

LatentOdeBaseline::LatentOdeBaseline(const BaselineConfig& config)
    : config_(config), rng_(config.seed) {
  const Index enc_in = 2 * config_.input_dim + 2;
  encoder_ = std::make_unique<nn::GruCell>(enc_in, config_.hidden_dim, rng_);
  to_latent_ =
      std::make_unique<nn::Linear>(config_.hidden_dim, config_.hidden_dim,
                                   rng_);
  dynamics_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.hidden_dim},
      rng_);
  cls_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.num_classes},
      rng_);
  reg_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.input_dim},
      rng_);
}

LatentOdeBaseline::Encoded LatentOdeBaseline::Encode(
    const data::IrregularSeries& context) const {
  data::EncoderInputs enc = data::BuildEncoderInputs(context);
  // Backward pass (latest observation first), as in the original model.
  const Index n = context.length();
  const Index cols = enc.inputs.cols();
  Tensor reversed = Tensor::Uninit(enc.inputs.shape());
  for (Index i = 0; i < n; ++i)
    std::copy_n(enc.inputs.data() + (n - 1 - i) * cols, cols,
                reversed.data() + i * cols);
  const ag::Var states = encoder_->Scan(ag::Constant(std::move(reversed)),
                                        encoder_->InitialState(1));
  Encoded out;
  out.z0 = to_latent_->Forward(ag::SliceRows(states, n - 1, 1));
  out.t_scale = enc.t_scale;
  out.t_offset = enc.t_offset;
  return out;
}

ag::Var LatentOdeBaseline::Evolve(const ag::Var& z0, Scalar from,
                                  Scalar to) const {
  ode::DiffSolveOptions options;
  options.method = ode::DiffMethod::kMidpoint;
  options.step = config_.step;
  ode::DiffOdeFunc f = [this](Scalar, const ag::Var& z) {
    return dynamics_->Forward(z);
  };
  return ode::IntegrateVar(f, z0, from, to, options);
}

ag::Var LatentOdeBaseline::ClassifyLogits(
    const data::IrregularSeries& context) {
  return cls_head_->Forward(Encode(context).z0);
}

std::vector<ag::Var> LatentOdeBaseline::PredictAt(
    const data::IrregularSeries& context, const std::vector<Scalar>& times) {
  Encoded enc = Encode(context);
  std::vector<ag::Var> preds;
  preds.reserve(times.size());
  for (Scalar t : times) {
    const Scalar norm_t = (t - enc.t_offset) * enc.t_scale;
    preds.push_back(reg_head_->Forward(Evolve(enc.z0, 0.0, norm_t)));
  }
  return preds;
}

void LatentOdeBaseline::CollectParams(std::vector<ag::Var>* out) const {
  encoder_->CollectParams(out);
  to_latent_->CollectParams(out);
  dynamics_->CollectParams(out);
  cls_head_->CollectParams(out);
  reg_head_->CollectParams(out);
}

}  // namespace diffode::baselines

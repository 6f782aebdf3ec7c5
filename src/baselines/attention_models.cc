#include "baselines/attention_models.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "data/encoding.h"
#include "ode/diff_integrator.h"

namespace diffode::baselines {

// ---------------------------------------------------------------------------
// mTAN-lite
// ---------------------------------------------------------------------------

MtanBaseline::MtanBaseline(const BaselineConfig& config)
    : config_(config), rng_(config.seed) {
  const Index enc_in = 2 * config_.input_dim + 2;
  time_embed_ = std::make_unique<TimeEmbedding>(config_.time_embed_dim, rng_);
  value_proj_ = std::make_unique<nn::Linear>(enc_in, config_.hidden_dim, rng_);
  // Reference points spread over the normalized window [0, 10].
  Tensor refs(Shape{config_.num_ref_points, 1});
  for (Index k = 0; k < config_.num_ref_points; ++k)
    refs.at(k, 0) = 10.0 * static_cast<Scalar>(k) /
                    static_cast<Scalar>(std::max<Index>(config_.num_ref_points - 1, 1));
  ref_points_ = ag::Param(refs);
  const Index rep = config_.num_ref_points * config_.hidden_dim;
  cls_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{rep, config_.mlp_hidden, config_.num_classes}, rng_);
  reg_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim + 1, config_.mlp_hidden,
                         config_.input_dim},
      rng_);
}

MtanBaseline::Keys MtanBaseline::BuildKeys(
    const data::IrregularSeries& context) const {
  data::EncoderInputs enc = data::BuildEncoderInputs(context);
  Keys keys;
  Tensor times_col(Shape{context.length(), 1});
  for (Index i = 0; i < context.length(); ++i)
    times_col.at(i, 0) = enc.norm_times[static_cast<std::size_t>(i)];
  keys.key_embed = time_embed_->Forward(ag::Constant(times_col));
  keys.values = ag::Tanh(value_proj_->Forward(ag::Constant(enc.inputs)));
  keys.t_scale = enc.t_scale;
  keys.t_offset = enc.t_offset;
  return keys;
}

ag::Var MtanBaseline::Attend(const Keys& keys,
                             const ag::Var& query_embed) const {
  const Scalar scale =
      1.0 / std::sqrt(static_cast<Scalar>(config_.time_embed_dim));
  ag::Var logits = ag::MulScalar(
      ag::MatMulNT(query_embed, keys.key_embed), scale);
  return ag::MatMul(ag::Softmax(logits), keys.values);
}

ag::Var MtanBaseline::ClassifyLogits(const data::IrregularSeries& context) {
  Keys keys = BuildKeys(context);
  ag::Var ref_embed = time_embed_->Forward(ref_points_);   // K x E
  ag::Var rep = Attend(keys, ref_embed);                   // K x hidden
  return cls_head_->Forward(
      ag::Reshape(rep, Shape{1, config_.num_ref_points * config_.hidden_dim}));
}

std::vector<ag::Var> MtanBaseline::PredictAt(
    const data::IrregularSeries& context, const std::vector<Scalar>& times) {
  Keys keys = BuildKeys(context);
  std::vector<ag::Var> preds;
  preds.reserve(times.size());
  for (Scalar t : times) {
    const Scalar norm_t = (t - keys.t_offset) * keys.t_scale;
    ag::Var q =
        time_embed_->Forward(ag::Constant(Tensor::Full(Shape{1, 1}, norm_t)));
    ag::Var attended = Attend(keys, q);
    ag::Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, norm_t));
    preds.push_back(reg_head_->Forward(ag::ConcatCols({attended, t_var})));
  }
  return preds;
}

void MtanBaseline::CollectParams(std::vector<ag::Var>* out) const {
  time_embed_->CollectParams(out);
  value_proj_->CollectParams(out);
  out->push_back(ref_points_);
  cls_head_->CollectParams(out);
  reg_head_->CollectParams(out);
}

// ---------------------------------------------------------------------------
// ContiFormer-lite
// ---------------------------------------------------------------------------

ContiFormerBaseline::ContiFormerBaseline(const BaselineConfig& config)
    : config_(config), rng_(config.seed) {
  const Index enc_in = 2 * config_.input_dim + 2;
  encoder_ = std::make_unique<nn::GruCell>(enc_in, config_.hidden_dim, rng_);
  time_embed_ = std::make_unique<TimeEmbedding>(config_.time_embed_dim, rng_);
  query_proj_ = std::make_unique<nn::Linear>(config_.time_embed_dim,
                                             config_.hidden_dim, rng_);
  key_proj_ =
      std::make_unique<nn::Linear>(config_.hidden_dim, config_.hidden_dim,
                                   rng_);
  flow_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.hidden_dim},
      rng_);
  cls_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.num_classes},
      rng_);
  reg_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim + 1, config_.mlp_hidden,
                         config_.input_dim},
      rng_);
}

ContiFormerBaseline::Keys ContiFormerBaseline::BuildKeys(
    const data::IrregularSeries& context) const {
  data::EncoderInputs enc = data::BuildEncoderInputs(context);
  Keys keys;
  keys.latents =
      encoder_->Scan(ag::Constant(enc.inputs), encoder_->InitialState(1));
  keys.key_proj = ag::Tanh(key_proj_->Forward(keys.latents));
  keys.norm_times = enc.norm_times;
  keys.t_scale = enc.t_scale;
  keys.t_offset = enc.t_offset;
  return keys;
}

ag::Var ContiFormerBaseline::RepresentationAt(const Keys& keys,
                                              Scalar norm_t) const {
  ag::Var q_embed =
      time_embed_->Forward(ag::Constant(Tensor::Full(Shape{1, 1}, norm_t)));
  ag::Var q = ag::Tanh(query_proj_->Forward(q_embed));
  const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(config_.hidden_dim));
  ag::Var logits =
      ag::MulScalar(ag::MatMulNT(q, keys.key_proj), scale);
  ag::Var attended = ag::MatMul(ag::Softmax(logits), keys.latents);
  // Continuous refinement: flow the attended vector over the gap to the
  // nearest observation (0 when the query coincides with one).
  Scalar gap = 1e30;
  for (Scalar ot : keys.norm_times) gap = std::min(gap, std::fabs(norm_t - ot));
  gap = std::min(gap, 2.0);
  if (gap > 1e-9) {
    ode::DiffSolveOptions options;
    options.method = ode::DiffMethod::kMidpoint;
    options.step = config_.step;
    ode::DiffOdeFunc f = [this](Scalar, const ag::Var& y) {
      return flow_->Forward(y);
    };
    attended = ode::IntegrateVar(f, attended, 0.0, gap, options);
  }
  return attended;
}

ag::Var ContiFormerBaseline::ClassifyLogits(
    const data::IrregularSeries& context) {
  Keys keys = BuildKeys(context);
  // Mean-pool representations at the observation times.
  ag::Var acc = RepresentationAt(keys, keys.norm_times.front());
  for (std::size_t i = 1; i < keys.norm_times.size(); ++i)
    acc = ag::Add(acc, RepresentationAt(keys, keys.norm_times[i]));
  acc = ag::MulScalar(acc,
                      1.0 / static_cast<Scalar>(keys.norm_times.size()));
  return cls_head_->Forward(acc);
}

std::vector<ag::Var> ContiFormerBaseline::PredictAt(
    const data::IrregularSeries& context, const std::vector<Scalar>& times) {
  Keys keys = BuildKeys(context);
  std::vector<ag::Var> preds;
  preds.reserve(times.size());
  for (Scalar t : times) {
    const Scalar norm_t = (t - keys.t_offset) * keys.t_scale;
    ag::Var rep = RepresentationAt(keys, norm_t);
    ag::Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, norm_t));
    preds.push_back(reg_head_->Forward(ag::ConcatCols({rep, t_var})));
  }
  return preds;
}

void ContiFormerBaseline::CollectParams(std::vector<ag::Var>* out) const {
  encoder_->CollectParams(out);
  time_embed_->CollectParams(out);
  query_proj_->CollectParams(out);
  key_proj_->CollectParams(out);
  flow_->CollectParams(out);
  cls_head_->CollectParams(out);
  reg_head_->CollectParams(out);
}

}  // namespace diffode::baselines

#include "baselines/gru_baselines.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "data/encoding.h"

namespace diffode::baselines {

GruBaseline::GruBaseline(const BaselineConfig& config)
    : config_(config), rng_(config.seed) {
  const Index enc_in = 2 * config_.input_dim + 2;
  cell_ = std::make_unique<nn::GruCell>(enc_in, config_.hidden_dim, rng_);
  cls_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.num_classes},
      rng_);
  reg_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim + 1, config_.mlp_hidden,
                         config_.input_dim},
      rng_);
}

ag::Var GruBaseline::RunToEnd(const data::IrregularSeries& context,
                              Scalar* t_scale, Scalar* t_offset) const {
  data::EncoderInputs enc = data::BuildEncoderInputs(context);
  if (t_scale) *t_scale = enc.t_scale;
  if (t_offset) *t_offset = enc.t_offset;
  const ag::Var states =
      cell_->Scan(ag::Constant(enc.inputs), cell_->InitialState(1));
  return ag::SliceRows(states, context.length() - 1, 1);
}

ag::Var GruBaseline::ClassifyLogits(const data::IrregularSeries& context) {
  return cls_head_->Forward(RunToEnd(context, nullptr, nullptr));
}

std::vector<ag::Var> GruBaseline::PredictAt(
    const data::IrregularSeries& context, const std::vector<Scalar>& times) {
  Scalar scale = 1.0, offset = 0.0;
  ag::Var h = RunToEnd(context, &scale, &offset);
  std::vector<ag::Var> preds;
  preds.reserve(times.size());
  for (Scalar t : times) {
    ag::Var t_var =
        ag::Constant(Tensor::Full(Shape{1, 1}, (t - offset) * scale));
    preds.push_back(reg_head_->Forward(ag::ConcatCols({h, t_var})));
  }
  return preds;
}

void GruBaseline::CollectParams(std::vector<ag::Var>* out) const {
  cell_->CollectParams(out);
  cls_head_->CollectParams(out);
  reg_head_->CollectParams(out);
}

GruDBaseline::GruDBaseline(const BaselineConfig& config)
    : config_(config), rng_(config.seed) {
  const Index f = config_.input_dim;
  const Index enc_in = 2 * f + 2;
  cell_ = std::make_unique<nn::GruCell>(enc_in, config_.hidden_dim, rng_);
  input_decay_ = ag::Param(rng_.UniformTensor(Shape{1, f}, 0.1, 1.0));
  hidden_decay_ =
      ag::Param(rng_.UniformTensor(Shape{1, config_.hidden_dim}, 0.1, 1.0));
  cls_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim, config_.mlp_hidden,
                         config_.num_classes},
      rng_);
  reg_head_ = std::make_unique<nn::Mlp>(
      std::vector<Index>{config_.hidden_dim + 1, config_.mlp_hidden, f},
      rng_);
}

ag::Var GruDBaseline::RunToEnd(const data::IrregularSeries& context,
                               Scalar* t_scale, Scalar* t_offset) const {
  data::EncoderInputs enc = data::BuildEncoderInputs(context);
  if (t_scale) *t_scale = enc.t_scale;
  if (t_offset) *t_offset = enc.t_offset;
  const Index n = context.length();
  const Index f = config_.input_dim;
  // Empirical per-channel means (the GRU-D imputation target).
  Tensor mean(Shape{1, f});
  Tensor count(Shape{1, f});
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < f; ++j)
      if (context.mask.at(i, j) > 0) {
        mean.at(0, j) += context.values.at(i, j);
        count.at(0, j) += 1.0;
      }
  for (Index j = 0; j < f; ++j)
    mean.at(0, j) /= std::max(count.at(0, j), 1.0);
  ag::Var h = cell_->InitialState(1);
  // Per-channel last value and time-since-last-observed.
  Tensor last = mean;
  Tensor since(Shape{1, f});
  Scalar prev_t = enc.norm_times.front();
  for (Index i = 0; i < n; ++i) {
    const Scalar t = enc.norm_times[static_cast<std::size_t>(i)];
    const Scalar dt = t - prev_t;
    prev_t = t;
    // Hidden decay: h <- h * exp(-relu(w_h) * dt).
    ag::Var decay =
        ag::Exp(ag::MulScalar(ag::Relu(hidden_decay_), -dt));
    h = ag::Mul(h, decay);
    // Input decay weights per channel: gamma = exp(-relu(w) * delta_j).
    Tensor delta(Shape{1, f});
    for (Index j = 0; j < f; ++j) {
      since.at(0, j) += dt;
      delta.at(0, j) = since.at(0, j);
    }
    ag::Var gamma = ag::Exp(ag::Neg(
        ag::Mul(ag::Relu(input_decay_), ag::Constant(delta))));
    // Imputed input: m*x + (1-m)*(gamma*last + (1-gamma)*mean).
    Tensor x_row(Shape{1, f});
    Tensor m_row(Shape{1, f});
    for (Index j = 0; j < f; ++j) {
      x_row.at(0, j) = context.values.at(i, j);
      m_row.at(0, j) = context.mask.at(i, j);
    }
    ag::Var m_var = ag::Constant(m_row);
    ag::Var fallback =
        ag::Add(ag::Mul(gamma, ag::Constant(last)),
                ag::Mul(ag::AddScalar(ag::Neg(gamma), 1.0),
                        ag::Constant(mean)));
    ag::Var imputed =
        ag::Add(ag::Mul(m_var, ag::Constant(x_row)),
                ag::Mul(ag::AddScalar(ag::Neg(m_var), 1.0), fallback));
    // Assemble the full encoder row with the imputed values.
    Tensor meta(Shape{1, 2});
    meta.at(0, 0) = t;
    meta.at(0, 1) = dt;
    ag::Var row =
        ag::ConcatCols({imputed, m_var, ag::Constant(meta)});
    h = cell_->Forward(row, h);
    for (Index j = 0; j < f; ++j) {
      if (context.mask.at(i, j) > 0) {
        last.at(0, j) = context.values.at(i, j);
        since.at(0, j) = 0.0;
      }
    }
  }
  return h;
}

ag::Var GruDBaseline::ClassifyLogits(const data::IrregularSeries& context) {
  return cls_head_->Forward(RunToEnd(context, nullptr, nullptr));
}

std::vector<ag::Var> GruDBaseline::PredictAt(
    const data::IrregularSeries& context, const std::vector<Scalar>& times) {
  Scalar scale = 1.0, offset = 0.0;
  ag::Var h = RunToEnd(context, &scale, &offset);
  std::vector<ag::Var> preds;
  preds.reserve(times.size());
  for (Scalar t : times) {
    ag::Var t_var =
        ag::Constant(Tensor::Full(Shape{1, 1}, (t - offset) * scale));
    preds.push_back(reg_head_->Forward(ag::ConcatCols({h, t_var})));
  }
  return preds;
}

void GruDBaseline::CollectParams(std::vector<ag::Var>* out) const {
  cell_->CollectParams(out);
  out->push_back(input_decay_);
  out->push_back(hidden_decay_);
  cls_head_->CollectParams(out);
  reg_head_->CollectParams(out);
}

}  // namespace diffode::baselines

#include "core/diffode_model.h"

#include <algorithm>

#include "core/batch_plans.h"
#include "data/encoding.h"
#include "hippo/hippo.h"

namespace diffode::core {

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
    enc.z = gru_encoder_->Scan(ag::Constant(inputs),
                               gru_encoder_->InitialState(1));
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
      // solver state: build it once here, reuse in every recovery.
      for (auto& head : enc.heads) CacheAdaHCorrection(&head, enc.h_ada);
    }
  }
  // Mean latent code; used by the w/o-attention ablation path.
  enc.z_mean = ag::MatMul(
      ag::Constant(Tensor::Full(Shape{1, n}, 1.0 / static_cast<Scalar>(n))),
      enc.z);
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

RhsDims DiffOde::RhsShape() const {
  RhsDims m;
  m.d = config_.latent_dim;
  m.dc = config_.hippo_dim;
  m.dr = config_.info_dim;
  m.hidden = config_.mlp_hidden;
  m.heads = config_.num_heads;
  m.attn = config_.use_attention;
  m.direct = config_.head == OutputHead::kDirect;
  m.strategy = config_.pt_strategy;
  return m;
}

ode::DiffOdeFunc DiffOde::Dynamics(const Encoded& enc) const {
  RhsInputs in;
  in.dims = RhsShape();
  const auto add_layer = [&in](const nn::Linear& l) {
    in.layers.push_back(&l.weight());
    in.layers.push_back(&l.bias());
  };
  if (in.dims.attn) {
    for (const auto& l : phi_->layers()) add_layer(*l);
    in.heads = &enc.heads;
    in.h2 = &enc.h2;
  } else {
    in.z_mean = &enc.z_mean;
  }
  if (in.dims.UsesHippo()) {
    for (const auto& l : f_r_->layers()) add_layer(*l);
    add_layer(*w_r_);
    in.hippo_a_t = ag::Constant(hippo_a_t_);
    in.hippo_b_t = ag::Constant(hippo_b_t_);
  }
  return [in = std::move(in)](Scalar t, const ag::Var& y) {
    return RhsVar(in, t, y);
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

ag::Var DiffOde::ConsistencyTerm(const Encoded& enc, const ag::Var& y,
                                 Index obs) const {
  const Index d = config_.latent_dim;
  const Index dh = d / config_.num_heads;
  ag::Var s_cur =
      config_.head == OutputHead::kDirect ? y : ag::SliceCols(y, 0, d);
  ag::Var zq = ag::SliceRows(enc.z, obs, 1);
  std::vector<ag::Var> anchor_heads;
  for (Index hidx = 0; hidx < config_.num_heads; ++hidx) {
    ag::Var zq_h =
        config_.num_heads == 1 ? zq : ag::SliceCols(zq, hidx * dh, dh);
    anchor_heads.push_back(
        DhsForward(enc.heads[static_cast<std::size_t>(hidx)], zq_h));
  }
  ag::Var anchor = config_.num_heads == 1 ? anchor_heads[0]
                                          : ag::ConcatCols(anchor_heads);
  return ag::Mean(ag::Square(ag::Sub(s_cur, anchor)));
}

std::vector<ag::Var> DiffOde::StatesAt(
    const Encoded& enc, const std::vector<Scalar>& norm_times) const {
  ode::DiffOdeFunc f = Dynamics(enc);
  ag::Var y0 = InitialState(enc);
  // The consistency MSE pulls S(t_i) toward its Eq. 5 definition at every
  // observation time. The term itself is a training-only loss, but the
  // anchor times it folds into the grid change how each span is stepped (the
  // last step is clamped to the remaining distance). Keep the anchors in the
  // grid in every mode and gate only the term, so no-grad forwards stay
  // bitwise identical to grad-on forwards.
  const bool anchored =
      config_.use_attention && config_.consistency_weight > 0.0;
  const bool anchor_terms = anchored && ag::GradMode::IsEnabled();
  // The engine's timeline at B = 1 (core/batch_plans.h).
  const BatchPlans bp = BuildBatchPlans(
      {norm_times}, {anchored ? &enc.norm_times : nullptr}, config_.step);
  std::vector<ag::Var> at_slot(bp.slots[0].size());
  ag::Var anchor_acc;
  // Walks one engine row on the tape. At each step count, and after the
  // last step, it stores the state of every checkpoint due there in its
  // query slot and adds the consistency term of every anchor due there.
  const auto walk = [&](const ode::RowPlan& plan,
                        const std::vector<ode::RowCheckpoint>& anchors) {
    ag::Var y = y0;
    std::size_t next = 0;
    std::size_t next_anchor = 0;
    for (std::size_t done = 0;; ++done) {
      const Index due = static_cast<Index>(done);
      for (; next < plan.checkpoints.size() &&
             plan.checkpoints[next].after_steps == due;
           ++next)
        at_slot[static_cast<std::size_t>(plan.checkpoints[next].tag)] = y;
      for (; next_anchor < anchors.size() &&
             anchors[next_anchor].after_steps == due;
           ++next_anchor) {
        ag::Var term = ConsistencyTerm(enc, y, anchors[next_anchor].tag);
        anchor_acc = anchor_acc.defined() ? ag::Add(anchor_acc, term) : term;
      }
      if (done == plan.steps.size()) return;
      y = ode::Step(f, diff_method_, plan.steps[done].t, y,
                    plan.steps[done].h);
    }
  };
  const std::vector<ode::RowCheckpoint>& anchors = bp.anchor_steps[0];
  const std::vector<ode::RowCheckpoint> no_anchors;
  walk(bp.plans[0], anchor_terms ? anchors : no_anchors);
  if (anchor_acc.defined()) {
    AddAuxiliaryLoss(ag::MulScalar(
        anchor_acc,
        config_.consistency_weight / static_cast<Scalar>(anchors.size())));
  }
  if (bp.back_row[0] >= 0)
    walk(bp.plans[static_cast<std::size_t>(bp.back_row[0])], no_anchors);
  std::vector<ag::Var> out;
  out.reserve(norm_times.size());
  for (Index slot : bp.query_slots[0])
    out.push_back(at_slot[static_cast<std::size_t>(slot)]);
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

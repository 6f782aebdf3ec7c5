#ifndef DIFFODE_BASELINES_GRU_BASELINES_H_
#define DIFFODE_BASELINES_GRU_BASELINES_H_

#include <memory>

#include "baselines/baseline_config.h"
#include "core/sequence_model.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/random.h"

namespace diffode::baselines {

// Plain GRU (Chung et al. 2014) over the shared observation encoding.
// A purely discrete model: queries are answered from the final hidden state
// plus the (normalized) query time — the fragmented-representation baseline
// the paper's intro argues against.
class GruBaseline : public core::SequenceModel {
 public:
  explicit GruBaseline(const BaselineConfig& config);

  ag::Var ClassifyLogits(const data::IrregularSeries& context) override;
  std::vector<ag::Var> PredictAt(const data::IrregularSeries& context,
                                 const std::vector<Scalar>& times) override;
  void CollectParams(std::vector<ag::Var>* out) const override;
  std::string name() const override { return "GRU"; }

 private:
  ag::Var RunToEnd(const data::IrregularSeries& context, Scalar* t_scale,
                   Scalar* t_offset) const;

  BaselineConfig config_;
  mutable Rng rng_;
  std::unique_ptr<nn::GruCell> cell_;
  std::unique_ptr<nn::Mlp> cls_head_;
  std::unique_ptr<nn::Mlp> reg_head_;
};

// GRU-D (Che et al. 2018): GRU with trainable input- and hidden-state decay
// driven by the time since the last observation of each channel.
class GruDBaseline : public core::SequenceModel {
 public:
  explicit GruDBaseline(const BaselineConfig& config);

  ag::Var ClassifyLogits(const data::IrregularSeries& context) override;
  std::vector<ag::Var> PredictAt(const data::IrregularSeries& context,
                                 const std::vector<Scalar>& times) override;
  void CollectParams(std::vector<ag::Var>* out) const override;
  std::string name() const override { return "GRU-D"; }

 private:
  ag::Var RunToEnd(const data::IrregularSeries& context, Scalar* t_scale,
                   Scalar* t_offset) const;

  BaselineConfig config_;
  mutable Rng rng_;
  std::unique_ptr<nn::GruCell> cell_;
  ag::Var input_decay_;   // 1 x f, >= 0 via relu in the decay exponent
  ag::Var hidden_decay_;  // 1 x hidden
  std::unique_ptr<nn::Mlp> cls_head_;
  std::unique_ptr<nn::Mlp> reg_head_;
};

}  // namespace diffode::baselines

#endif  // DIFFODE_BASELINES_GRU_BASELINES_H_

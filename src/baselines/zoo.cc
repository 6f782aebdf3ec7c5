#include "baselines/zoo.h"

#include "baselines/attention_models.h"
#include "baselines/gru_baselines.h"
#include "baselines/gru_ode_bayes.h"
#include "baselines/hippo_models.h"
#include "baselines/latent_ode.h"
#include "baselines/nrde.h"
#include "baselines/ode_rnn.h"
#include "baselines/poly_ode.h"

namespace diffode::baselines {

std::vector<std::string> BaselineNames() {
  return {"mTAN",       "ContiFormer",   "HiPPO-obs", "HiPPO-RNN",
          "S4",         "GRU",           "GRU-D",     "ODE-RNN",
          "Latent ODE", "GRU-ODE-Bayes", "NRDE",      "PolyODE"};
}

std::unique_ptr<core::SequenceModel> MakeBaseline(
    const std::string& name, const BaselineConfig& config) {
  if (name == "mTAN") return std::make_unique<MtanBaseline>(config);
  if (name == "ContiFormer")
    return std::make_unique<ContiFormerBaseline>(config);
  if (name == "HiPPO-obs") return std::make_unique<HippoObsBaseline>(config);
  if (name == "HiPPO-RNN") return std::make_unique<HippoRnnBaseline>(config);
  if (name == "S4") return std::make_unique<S4LiteBaseline>(config);
  if (name == "GRU") return std::make_unique<GruBaseline>(config);
  if (name == "GRU-D") return std::make_unique<GruDBaseline>(config);
  if (name == "ODE-RNN") return std::make_unique<OdeRnnBaseline>(config);
  if (name == "Latent ODE") return std::make_unique<LatentOdeBaseline>(config);
  if (name == "GRU-ODE-Bayes")
    return std::make_unique<GruOdeBayesBaseline>(config);
  if (name == "NRDE") return std::make_unique<NrdeBaseline>(config);
  if (name == "PolyODE") return std::make_unique<PolyOdeBaseline>(config);
  DIFFODE_CHECK_MSG(false, "unknown baseline name");
  return nullptr;
}

}  // namespace diffode::baselines

#ifndef DIFFODE_CORE_CONFIG_H_
#define DIFFODE_CORE_CONFIG_H_

#include <cstdint>

#include "sparsity/pt_solver.h"
#include "tensor/tensor.h"

namespace diffode::core {

enum class EncoderType { kGru, kMlp };
enum class OutputHead { kHippo, kDirect };

// Hyper-parameters of the DIFFODE model. Defaults follow the paper's
// implementation details (Sec. IV-A4): one-layer GRU encoder, one-hidden-
// layer MLPs of width 32, HiPPO output head, maxHoyer attention inversion.
struct DiffOdeConfig {
  Index input_dim = 1;   // f: observed feature count
  Index latent_dim = 16; // d: DHS dimension (16 classification / 32 regression)
  Index hippo_dim = 16;  // d_c: HiPPO coefficient count
  Index info_dim = 16;   // dimension of the information state r_t
  Index mlp_hidden = 32;
  Index num_classes = 2;
  Index num_heads = 1;   // Fig. 6 sweep
  EncoderType encoder = EncoderType::kGru;   // Fig. 5 ablation: kMlp
  OutputHead head = OutputHead::kHippo;      // Fig. 5 ablation: kDirect
  bool use_attention = true;                 // Fig. 5 ablation: w/o Attn
  sparsity::PtStrategy pt_strategy = sparsity::PtStrategy::kMaxHoyer;
  Scalar step = 0.05;    // ODE integration step (0.05 cls / 5 regression)
  Scalar ridge = 1e-6;   // Gram-matrix ridge in the attention inversion
  // Weight of the DHS-definition consistency term: the integrated S(t_i)
  // is pulled toward the attention read-out softmax(z_i Zᵀ/√d) Z at every
  // observation time (Eq. 5 is the *definition* of the DHS; this term makes
  // the learned dynamics honour it). 0 disables.
  Scalar consistency_weight = 0.1;
  // Timescale of the HiPPO block in Eq. 36: the LegS pair is used as
  // (A/τ, B/τ). The LegS spectrum reaches -hippo_dim, so the unrolled
  // explicit solver is stable only when (hippo_dim/τ)·step stays inside its
  // stability region; 0 selects τ = hippo_dim * step automatically.
  Scalar hippo_timescale = 0.0;
  std::uint64_t seed = 42;
};

}  // namespace diffode::core

#endif  // DIFFODE_CORE_CONFIG_H_

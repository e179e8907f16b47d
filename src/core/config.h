#ifndef SMARTPSI_CORE_CONFIG_H_
#define SMARTPSI_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "signature/signature_matrix.h"

namespace psi::core {

/// Tuning knobs for the SmartPSI engine (paper §4.2–4.3). Defaults follow
/// the paper where it states values (10% training sample, here a ceiling;
/// super-optimistic candidate cap 10). The learner is the paper's Random
/// Forest. The Realist's constants — the 1000-node training cap, plan step
/// limits and MaxTime = 2 × AvgT with its floor, all counted in search
/// steps — are not knobs: see SmartPsiEngine.
struct SmartPsiConfig {
  // --- Signatures -------------------------------------------------------
  /// Builder for graph and query signatures (must match; engine-enforced).
  signature::Method signature_method = signature::Method::kMatrix;
  /// Maximum propagation depth D.
  uint32_t signature_depth = 2;
  /// Per-hop weight decay (paper: 1/2). Any value in (0, 1] keeps pruning
  /// sound; smaller values weight close neighbors more heavily.
  float signature_decay = signature::SignatureMatrix::kDefaultDecay;

  // --- Training (Models α and β) ----------------------------------------
  /// Ceiling on the fraction of the cache-missing candidates evaluated to
  /// build training data: training stops earlier once it has spent
  /// SmartPsiEngine::kTrainingShare of the query's estimated work.
  double train_fraction = 0.1;
  /// Below this many prediction-cache misses, fit no model and evaluate the
  /// misses pessimistically with the heuristic plan (training would
  /// dominate); cache hits still run their cached decision.
  size_t min_candidates_for_ml = 24;
  /// Random Forest size for Models α and β (paper: Random Forest; §5.4
  /// shows it beats SVM and NN on accuracy and build time).
  size_t forest_trees = 20;

  // --- Evaluation --------------------------------------------------------
  /// Candidate cap of the super-optimistic first pass (paper uses 10).
  size_t super_optimistic_limit = 10;
  /// Enable Model β (otherwise: heuristic plan for everything).
  bool enable_plan_model = true;
  /// Enable the signature-keyed prediction cache (paper §4.2.3).
  bool enable_cache = true;
  /// Key cache entries by (query fingerprint, node signature) and derive
  /// the plan pool deterministically from the query instead of the engine's
  /// evolving RNG state. A node's confirmed type and best plan are only
  /// meaningful relative to one query, and plan indices only relative to
  /// one plan pool, so a cache hit then means the same thing standalone and
  /// in the service (which always sets it). Off keys by node signature
  /// alone: a later query with the same pivot label is served decisions
  /// confirmed for an earlier one.
  bool query_keyed_cache = true;
  /// Enable the 3-state detection-and-recovery executor (paper §4.3);
  /// disabled, mispredictions simply run to completion.
  bool enable_preemption = true;

  // --- Infrastructure ----------------------------------------------------
  /// Worker threads for signature construction and candidate evaluation.
  size_t num_threads = 1;
  /// Seed for all engine-internal randomness (sampling, forests, plans).
  uint64_t seed = 0x5ca1ab1eULL;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_CONFIG_H_

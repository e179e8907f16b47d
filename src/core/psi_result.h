#ifndef SMARTPSI_CORE_PSI_RESULT_H_
#define SMARTPSI_CORE_PSI_RESULT_H_

#include <cstddef>
#include <vector>

#include "graph/types.h"
#include "match/search_stats.h"

namespace psi::core {

/// Result of evaluating one PSI query, with the instrumentation the paper's
/// experiments report (timing breakdown for Table 4, model accuracy for
/// Figure 11, recovery counters for §4.3).
struct PsiQueryResult {
  /// Distinct data nodes that bind to the pivot, sorted ascending.
  std::vector<graph::NodeId> valid_nodes;

  /// False iff the query deadline expired before all candidates were
  /// evaluated; valid_nodes is then a subset of the true answer.
  bool complete = true;

  // --- Workload ----------------------------------------------------------
  size_t num_candidates = 0;
  size_t num_training_nodes = 0;
  size_t cache_hits = 0;
  /// Cache hits whose predicted node type disagreed with the evaluation's
  /// actual outcome. Nonzero means stale or corrupted entries (the entry
  /// only steered the method choice, so the answer is still exact) — the
  /// service's poisoning detector samples this (DESIGN.md §11).
  size_t cache_mismatches = 0;

  // --- Model α quality (measured on non-training candidates whose true
  // --- type the evaluation itself establishes) ---------------------------
  size_t alpha_predictions = 0;
  size_t alpha_correct = 0;

  // --- Preemptive recovery (paper §4.3) -----------------------------------
  /// Evaluations that hit the first timeout and switched method (state 2).
  size_t method_recoveries = 0;
  /// Evaluations that hit the second timeout and fell back to the
  /// heuristic plan without limits (state 3).
  size_t plan_fallbacks = 0;

  // --- Timing breakdown (seconds) -----------------------------------------
  double train_seconds = 0.0;    // ground-truth evaluation + model fitting
  double predict_seconds = 0.0;  // model / cache consultation
  double eval_seconds = 0.0;     // candidate evaluation proper
  double total_seconds = 0.0;

  /// Aggregated search counters across all candidate evaluations.
  match::SearchStats search;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_PSI_RESULT_H_

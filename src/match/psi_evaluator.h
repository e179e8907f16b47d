#ifndef SMARTPSI_MATCH_PSI_EVALUATOR_H_
#define SMARTPSI_MATCH_PSI_EVALUATOR_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "match/plan.h"
#include "match/search_scratch.h"
#include "match/search_stats.h"
#include "signature/signature_matrix.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace psi::match {

/// Evaluation method for one candidate node (paper §3.3–3.4, Algorithm 1).
enum class PsiMode {
  /// Greedy guided DFS: candidates sorted by satisfiability score,
  /// descending. Fast to *confirm* valid nodes.
  kOptimistic,
  /// Optimistic plus a hard cap on the per-level candidate list (default
  /// 10), minimizing sorting work. Incomplete on its own — a kInvalid
  /// answer only means "not found in the truncated space"; the full
  /// optimistic strategy (EvaluateNodeOptimisticStrategy) falls back.
  kSuperOptimistic,
  /// Unguided search with aggressive neighborhood-signature pruning
  /// (Proposition 3.2). Fast to *refute* invalid nodes.
  kPessimistic,
};

/// Evaluates whether single data nodes are valid pivot bindings for a
/// pivoted query — the core of PSI: it stops at the *first* embedding.
///
/// Usage:
///   PsiEvaluator eval(g, graph_sigs);
///   eval.BindQuery(q, query_sigs, plan);       // plan.order[0] == q.pivot()
///   for (NodeId u : candidates)
///     if (eval.EvaluateNode(u, opts, &stats) == Outcome::kValid) ...
///
/// Per-level signature work runs through the batched kernels of
/// src/signature/kernels.h over sparse per-query-node requirement views,
/// so satisfaction filtering and score ranking cost O(nnz) per candidate
/// and sweep whole candidate lists in one pass (DESIGN.md §9).
///
/// All mutable state lives in a SearchScratch arena: pass one in to reuse
/// buffers across evaluator instances (the SmartPSI engine pools them per
/// worker); without one the evaluator owns a private arena. Rebinding the
/// same (query, signatures, plan) is a no-op, and rebinding anything else
/// reuses the arena's capacity — per-candidate rebinds allocate nothing
/// after warmup. The evaluator must not be shared across threads
/// concurrently; query/plan/signature references must outlive the binding.
class PsiEvaluator {
 public:
  struct Options {
    PsiMode mode = PsiMode::kPessimistic;
    /// Candidate cap for kSuperOptimistic (paper uses 10).
    size_t super_optimistic_limit = 10;
    /// Set by drivers that already ran the whole candidate list through
    /// match::FilterPivotCandidates (candidates.h): EvaluateNode then skips
    /// the redundant per-candidate pivot satisfaction check.
    bool pivot_prefiltered = false;
    /// Steps (see steps()) one evaluation may take before it returns
    /// kTimeout; the optimistic strategy's passes share it. 0 = unlimited.
    uint64_t max_steps = 0;
    util::Deadline deadline;
    util::StopToken stop;
  };

  /// `graph_sigs` must have one row per node of `g`. Both must outlive the
  /// evaluator. `scratch`, if given, is borrowed for the evaluator's
  /// lifetime (nullptr = use an internal arena).
  PsiEvaluator(const graph::Graph& g,
               const signature::SignatureMatrix& graph_sigs,
               SearchScratch* scratch = nullptr);

  /// Binds the query to evaluate against. `query_sigs` must have one row
  /// per query node, the same column count as the graph signatures, and be
  /// built with the same Method/depth. `plan` must be valid for `q` rooted
  /// at the pivot; it is copied into the scratch arena, so a temporary is
  /// fine. `q` and `query_sigs` are held by reference and must outlive the
  /// binding.
  void BindQuery(const graph::QueryGraph& q,
                 const signature::SignatureMatrix& query_sigs,
                 const Plan& plan);

  /// Evaluates one candidate with the bound query using `options.mode`.
  Outcome EvaluateNode(graph::NodeId candidate, const Options& options,
                       SearchStats* stats = nullptr);

  /// The paper's full optimistic strategy (§3.3): first a super-optimistic
  /// pass; if it finds a match the node is valid, otherwise rerun with the
  /// complete optimistic search.
  Outcome EvaluateNodeOptimisticStrategy(graph::NodeId candidate,
                                         const Options& options,
                                         SearchStats* stats = nullptr);

  /// Steps the last evaluation took, with or without `stats`: the pivot
  /// check, Search calls and neighbours scanned for candidates, which
  /// SearchStats counts as recursive_calls + candidates_examined.
  uint64_t steps() const { return steps_ - evaluation_start_; }

 private:
  void StartEvaluation(const Options& options);  // new count and budget
  /// EvaluateNode within the budget already started.
  Outcome EvaluatePivot(graph::NodeId candidate, const Options& options,
                        SearchStats* stats);

  Outcome Search(size_t level, const Options& options, SearchStats* stats);

  /// Fills the level's candidate buffer with data nodes consistent with
  /// all already-mapped query neighbors of plan node `level`.
  void GenerateCandidates(size_t level, SearchStats* stats);

  bool IsUsed(graph::NodeId data_node, size_t level) const;

  /// Stops on a spent step budget, or on the stop token or deadline,
  /// which it polls every kPollSteps steps.
  bool ShouldAbort(const Options& options, Outcome* outcome);

  /// ~0.1 ms at serve-cold-swap's ~165 steps/µs (EXPERIMENTS.md, "One cost
  /// unit"): a ~25 ns clock read that often costs nothing measurable.
  static constexpr uint64_t kPollSteps = uint64_t{1} << 14;

  const graph::Graph& graph_;
  const signature::SignatureMatrix& graph_sigs_;

  const graph::QueryGraph* query_ = nullptr;
  const signature::SignatureMatrix* query_sigs_ = nullptr;

  /// Owned fallback arena; scratch_ points here unless one was passed in.
  SearchScratch owned_scratch_;
  SearchScratch* scratch_;

  /// One step counter for budgets and polls; the first step polls.
  uint64_t steps_ = 0;
  uint64_t evaluation_start_ = 0;
  uint64_t step_limit_ = UINT64_MAX;
  uint64_t next_poll_ = 0;
};

}  // namespace psi::match

#endif  // SMARTPSI_MATCH_PSI_EVALUATOR_H_

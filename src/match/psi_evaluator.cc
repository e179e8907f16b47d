#include "match/psi_evaluator.h"

#include <algorithm>
#include <cassert>

#include "signature/kernels.h"

namespace psi::match {

PsiEvaluator::PsiEvaluator(const graph::Graph& g,
                           const signature::SignatureMatrix& graph_sigs,
                           SearchScratch* scratch)
    : graph_(g),
      graph_sigs_(graph_sigs),
      scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
  assert(graph_sigs.num_rows() == g.num_nodes());
}

void PsiEvaluator::BindQuery(const graph::QueryGraph& q,
                             const signature::SignatureMatrix& query_sigs,
                             const Plan& plan) {
  assert(q.has_pivot());
  assert(query_sigs.num_rows() == q.num_nodes());
  assert(query_sigs.num_labels() == graph_sigs_.num_labels());
  assert(query_sigs.method() == graph_sigs_.method());
  assert(query_sigs.decay() == graph_sigs_.decay());
  assert(IsValidPlan(q, plan, q.pivot()));

  SearchScratch& s = *scratch_;
  // Rebinding the same query/signatures/plan is a no-op: search always
  // unwinds its mappings, so the arena is already in the bound state. This
  // makes the per-candidate rebinds of the SmartPSI executor free whenever
  // consecutive candidates run the same predicted plan.
  if (query_ == &q && query_sigs_ == &query_sigs &&
      s.plan.order == plan.order) {
    return;
  }

  query_ = &q;
  query_sigs_ = &query_sigs;
  s.plan.order.assign(plan.order.begin(), plan.order.end());

  const size_t n = q.num_nodes();
  s.plan_position.resize(n);
  for (size_t i = 0; i < n; ++i) s.plan_position[s.plan.order[i]] = i;

  s.backward_flat.clear();
  s.backward_offsets.resize(n + 1);
  s.backward_offsets[0] = 0;
  for (size_t level = 0; level < n; ++level) {
    if (level > 0) {
      const graph::NodeId v = s.plan.order[level];
      for (const auto& [nbr, edge_label] : q.neighbors(v)) {
        if (s.plan_position[nbr] < level) {
          s.backward_flat.push_back({nbr, edge_label});
        }
      }
    }
    s.backward_offsets[level + 1] =
        static_cast<uint32_t>(s.backward_flat.size());
  }

  s.mapping.assign(n, graph::kInvalidNode);
  s.mapped_stack.assign(n, graph::kInvalidNode);
  s.level_candidates.resize(n);
  s.level_reqs.resize(n);
  for (size_t level = 0; level < n; ++level) {
    s.level_reqs[level].Assign(query_sigs.row(s.plan.order[level]));
  }
}

bool PsiEvaluator::IsUsed(graph::NodeId data_node, size_t level) const {
  const SearchScratch& s = *scratch_;
  for (size_t i = 0; i < level; ++i) {
    if (s.mapped_stack[i] == data_node) return true;
  }
  return false;
}

void PsiEvaluator::StartEvaluation(const Options& options) {
  evaluation_start_ = steps_;
  step_limit_ =
      options.max_steps == 0 ? UINT64_MAX : steps_ + options.max_steps;
}

bool PsiEvaluator::ShouldAbort(const Options& options, Outcome* outcome) {
  if (steps_ < next_poll_ && steps_ <= step_limit_) return false;
  if (steps_ <= step_limit_) {
    next_poll_ = steps_ + kPollSteps;
    if (options.stop.StopRequested()) {
      *outcome = Outcome::kStopped;
      return true;
    }
    if (!options.deadline.Expired()) return false;
  }
  *outcome = Outcome::kTimeout;
  return true;
}

void PsiEvaluator::GenerateCandidates(size_t level, SearchStats* stats) {
  SearchScratch& s = *scratch_;
  const graph::NodeId v = s.plan.order[level];
  auto& out = s.level_candidates[level];
  out.clear();

  const BackwardNeighbor* anchors =
      s.backward_flat.data() + s.backward_offsets[level];
  const size_t num_anchors =
      s.backward_offsets[level + 1] - s.backward_offsets[level];
  assert(num_anchors > 0 && "plans must be connected");

  // Anchor on the mapped neighbor whose image has the smallest degree:
  // its adjacency is the cheapest superset of the candidate set.
  size_t anchor_index = 0;
  size_t anchor_degree = SIZE_MAX;
  for (size_t i = 0; i < num_anchors; ++i) {
    const size_t deg = graph_.degree(s.mapping[anchors[i].query_node]);
    if (deg < anchor_degree) {
      anchor_degree = deg;
      anchor_index = i;
    }
  }
  const BackwardNeighbor anchor = anchors[anchor_index];
  const graph::NodeId anchor_image = s.mapping[anchor.query_node];

  const graph::Label want_label = query_->label(v);
  const size_t want_degree = query_->degree(v);

  const auto nbrs = graph_.neighbors(anchor_image);
  const auto edge_labels = graph_.edge_labels(anchor_image);
  steps_ += nbrs.size();
  if (stats != nullptr) stats->candidates_examined += nbrs.size();
  for (size_t i = 0; i < nbrs.size(); ++i) {
    const graph::NodeId c = nbrs[i];
    if (edge_labels[i] != anchor.edge_label) continue;
    if (graph_.label(c) != want_label) continue;
    if (graph_.degree(c) < want_degree) continue;
    if (IsUsed(c, level)) continue;
    // Verify edges to the remaining mapped query neighbors.
    bool consistent = true;
    for (size_t a = 0; a < num_anchors; ++a) {
      if (a == anchor_index) continue;
      const auto edge_label =
          graph_.EdgeLabelBetween(s.mapping[anchors[a].query_node], c);
      if (!edge_label.has_value() || *edge_label != anchors[a].edge_label) {
        consistent = false;
        break;
      }
    }
    if (consistent) out.push_back(c);
  }
}

Outcome PsiEvaluator::Search(size_t level, const Options& options,
                             SearchStats* stats) {
  if (stats != nullptr) ++stats->recursive_calls;
  ++steps_;
  Outcome abort_outcome;
  if (ShouldAbort(options, &abort_outcome)) return abort_outcome;

  SearchScratch& s = *scratch_;
  // Line 1: full mapping -> a first embedding exists; PSI stops here.
  if (level == s.plan.size()) return Outcome::kValid;

  const graph::NodeId v = s.plan.order[level];
  GenerateCandidates(level, stats);
  if (ShouldAbort(options, &abort_outcome)) return abort_outcome;
  auto& candidates = s.level_candidates[level];
  const signature::SparseRequirement& req = s.level_reqs[level];

  if (options.mode == PsiMode::kPessimistic) {
    // Line 7 (pessimist): prune candidates whose neighborhood signature
    // cannot satisfy the query node's signature (Proposition 3.2) — one
    // kernel sweep over the whole list instead of a check per candidate.
    if (stats != nullptr) stats->signature_checks += candidates.size();
    const size_t pruned =
        signature::FilterCandidates(graph_sigs_, req, candidates);
    if (stats != nullptr) stats->pruned_by_signature += pruned;
  } else {
    // Line 4 (super optimistic): cap the candidate list *before* sorting
    // so the sorting overhead is bounded too; line 5 (optimist): visit
    // high satisfiability scores first.
    const bool capped = options.mode == PsiMode::kSuperOptimistic;
    const size_t limit = capped ? options.super_optimistic_limit : SIZE_MAX;
    const size_t effective = std::min(candidates.size(), limit);
    if (effective > 1) {
      signature::ScoreAndRank(graph_sigs_, req, candidates, s.rank,
                              capped ? limit : 0,
                              capped ? signature::RankMode::kCapFirst
                                     : signature::RankMode::kFull);
      if (stats != nullptr) ++stats->score_sorts;
    } else if (candidates.size() > effective) {
      candidates.resize(effective);
    }
  }

  for (const graph::NodeId c : candidates) {
    s.mapping[v] = c;
    s.mapped_stack[level] = c;
    const Outcome result = Search(level + 1, options, stats);
    s.mapping[v] = graph::kInvalidNode;
    s.mapped_stack[level] = graph::kInvalidNode;
    if (result != Outcome::kInvalid) return result;
    // `candidates` references this level's buffer, which deeper levels
    // never touch — safe to continue iterating.
  }
  return Outcome::kInvalid;
}

Outcome PsiEvaluator::EvaluateNode(graph::NodeId candidate,
                                   const Options& options,
                                   SearchStats* stats) {
  StartEvaluation(options);
  return EvaluatePivot(candidate, options, stats);
}

Outcome PsiEvaluator::EvaluatePivot(graph::NodeId candidate,
                                    const Options& options,
                                    SearchStats* stats) {
  assert(query_ != nullptr && "BindQuery first");
  SearchScratch& s = *scratch_;
  const graph::NodeId pivot = query_->pivot();
  ++steps_;
  if (stats != nullptr) ++stats->candidates_examined;
  if (graph_.label(candidate) != query_->label(pivot)) {
    return Outcome::kInvalid;
  }
  if (graph_.degree(candidate) < query_->degree(pivot)) {
    return Outcome::kInvalid;
  }
  if (options.mode == PsiMode::kPessimistic && !options.pivot_prefiltered) {
    if (stats != nullptr) ++stats->signature_checks;
    if (!signature::internal::RowSatisfies(graph_sigs_.row(candidate),
                                           s.level_reqs[0])) {
      if (stats != nullptr) ++stats->pruned_by_signature;
      return Outcome::kInvalid;
    }
  }

  s.mapping[pivot] = candidate;
  s.mapped_stack[0] = candidate;
  const Outcome result = Search(1, options, stats);
  s.mapping[pivot] = graph::kInvalidNode;
  s.mapped_stack[0] = graph::kInvalidNode;
  return result;
}

Outcome PsiEvaluator::EvaluateNodeOptimisticStrategy(graph::NodeId candidate,
                                                     const Options& options,
                                                     SearchStats* stats) {
  StartEvaluation(options);
  Options super = options;
  super.mode = PsiMode::kSuperOptimistic;
  const Outcome quick = EvaluatePivot(candidate, super, stats);
  // kInvalid from the truncated search is inconclusive; everything else
  // (valid / timeout / stopped) is final.
  if (quick != Outcome::kInvalid) return quick;
  Options full = options;
  full.mode = PsiMode::kOptimistic;
  return EvaluatePivot(candidate, full, stats);
}

}  // namespace psi::match

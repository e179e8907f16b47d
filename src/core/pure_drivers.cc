#include "core/pure_drivers.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/query_context.h"
#include "match/candidates.h"
#include "match/parallel_search.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"

namespace psi::core {

namespace {

/// Per-candidate evaluation shared by the sequential and parallel loops.
match::Outcome EvaluateOne(match::PsiEvaluator& evaluator, graph::NodeId u,
                           const PureDriverOptions& options,
                           match::PsiEvaluator::Options& eval_options,
                           match::SearchStats* stats) {
  if (options.strategy == PureStrategy::kOptimistic) {
    return evaluator.EvaluateNodeOptimisticStrategy(u, eval_options, stats);
  }
  eval_options.mode = match::PsiMode::kPessimistic;
  return evaluator.EvaluateNode(u, eval_options, stats);
}

}  // namespace

PureDriverResult EvaluatePure(const graph::Graph& g,
                              const signature::SignatureMatrix& graph_sigs,
                              const graph::QueryGraph& q,
                              const PureDriverOptions& options) {
  util::WallTimer timer;
  PureDriverResult result;

  QueryContext local;
  const QueryContext* prepared = options.prepared;
  if (prepared == nullptr) {
    local = PrepareQuery(g, graph_sigs, q);
    prepared = &local;
  }
  if (!prepared->feasible || prepared->candidates.empty()) {
    result.seconds = timer.Seconds();
    return result;
  }
  const signature::SignatureMatrix& query_sigs = prepared->query_sigs;
  // The loops read the prepared list; only the pessimistic bulk prefilter
  // below edits a list, and it edits its own copy (a shared batch context
  // is immutable).
  std::span<const graph::NodeId> candidates = prepared->candidates;
  std::vector<graph::NodeId> filtered;

  const match::Plan plan = match::MakeHeuristicPlan(q, g, q.pivot());

  match::PsiEvaluator::Options eval_options;
  eval_options.deadline = options.deadline;
  eval_options.stop = options.stop;

  // Without a limit the pessimist checks every pivot candidate's signature
  // anyway, so run the whole list through the bulk kernel once instead of
  // one scalar check per EvaluateNode call. Under a limit the loop stops
  // early, and EvaluateNode checks only the candidates it reaches.
  const size_t limit = options.max_valid_nodes;
  if (options.strategy == PureStrategy::kPessimistic && limit == 0) {
    filtered = options.prepared != nullptr ? prepared->candidates
                                           : std::move(local.candidates);
    match::FilterPivotCandidates(graph_sigs, query_sigs.row(q.pivot()),
                                 filtered, result.stats);
    candidates = filtered;
    eval_options.pivot_prefiltered = true;
    if (candidates.empty()) {
      result.seconds = timer.Seconds();
      return result;
    }
  }

  const size_t num_workers = std::max<size_t>(
      1, std::min(options.search_threads, candidates.size()));

  if (num_workers == 1) {
    match::SearchScratchPool::Lease lease(options.scratch_pool);
    match::PsiEvaluator evaluator(g, graph_sigs, lease.get());
    evaluator.BindQuery(q, query_sigs, plan);
    for (const graph::NodeId u : candidates) {
      // Poll between candidates: the evaluator only checks every
      // kPollSteps steps, so small searches finish between polls and
      // an expired deadline could otherwise start every remaining
      // candidate.
      if (options.deadline.Expired() || options.stop.StopRequested()) {
        result.complete = false;
        break;
      }
      const match::Outcome outcome =
          EvaluateOne(evaluator, u, options, eval_options, &result.stats);
      if (outcome == match::Outcome::kValid) {
        result.valid_nodes.push_back(u);
        if (limit > 0 && result.valid_nodes.size() >= limit) break;
      } else if (outcome == match::Outcome::kTimeout ||
                 outcome == match::Outcome::kStopped) {
        result.complete = false;
        break;
      }
    }
    // Candidates are iterated in ascending order, so valid_nodes is sorted.
    result.seconds = timer.Seconds();
    return result;
  }

  // Work-stealing parallel loop: each worker owns a full evaluation stack
  // (evaluator + scratch + stats) and appends to a private
  // valid list; the final sorted merge makes the answer independent of
  // which worker ran which candidate. Under a limit the workers share one
  // valid count and skip every remaining candidate once it reaches k;
  // which k nodes they found then depends on the schedule.
  struct Worker {
    std::unique_ptr<match::SearchScratchPool::Lease> lease;
    std::unique_ptr<match::PsiEvaluator> evaluator;
    match::PsiEvaluator::Options eval_options;
    std::vector<graph::NodeId> valid;
    match::SearchStats stats;
    bool complete = true;
  };
  std::vector<Worker> workers(num_workers);
  for (Worker& w : workers) {
    w.lease = std::make_unique<match::SearchScratchPool::Lease>(
        options.scratch_pool);
    w.evaluator =
        std::make_unique<match::PsiEvaluator>(g, graph_sigs, w.lease->get());
    w.evaluator->BindQuery(q, query_sigs, plan);
    w.eval_options = eval_options;
  }
  std::atomic<bool> halted{false};
  std::atomic<size_t> found{0};

  const uint64_t steals = match::RunWorkStealing(
      candidates.size(), num_workers, nullptr,
      [&](size_t item, size_t worker_index) {
        Worker& w = workers[worker_index];
        if (limit > 0 && found.load(std::memory_order_relaxed) >= limit) {
          return;
        }
        if (halted.load(std::memory_order_relaxed)) {
          w.complete = false;
          return;
        }
        if (options.deadline.Expired() || options.stop.StopRequested()) {
          w.complete = false;
          halted.store(true, std::memory_order_relaxed);
          return;
        }
        const graph::NodeId u = candidates[item];
        const match::Outcome outcome =
            EvaluateOne(*w.evaluator, u, options, w.eval_options, &w.stats);
        if (outcome == match::Outcome::kValid) {
          w.valid.push_back(u);
          found.fetch_add(1, std::memory_order_relaxed);
        } else if (outcome == match::Outcome::kTimeout ||
                   outcome == match::Outcome::kStopped) {
          w.complete = false;
          halted.store(true, std::memory_order_relaxed);
        }
      });

  for (Worker& w : workers) {
    result.valid_nodes.insert(result.valid_nodes.end(), w.valid.begin(),
                              w.valid.end());
    result.stats += w.stats;
    result.complete = result.complete && w.complete;
  }
  result.stats.work_steals += steals;
  std::sort(result.valid_nodes.begin(), result.valid_nodes.end());
  if (limit > 0 && result.valid_nodes.size() >= limit) {
    // k verified valid nodes answer the limited query, even if a worker
    // still in flight was interrupted afterwards.
    result.valid_nodes.resize(limit);
    result.complete = true;
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace psi::core

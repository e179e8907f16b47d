#include "core/two_threaded.h"

#include <atomic>
#include <thread>

#include "core/query_context.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "util/stop_token.h"

namespace psi::core {

namespace {

/// Outcome slot the two racers publish into; 0 = undecided.
enum RaceState : int {
  kUndecided = 0,
  kDecidedValid = 1,
  kDecidedInvalid = 2,
  kDecidedTimeout = 3,
};

struct Racer {
  match::PsiEvaluator evaluator;
  match::SearchStats stats;

  Racer(const graph::Graph& g, const signature::SignatureMatrix& sigs)
      : evaluator(g, sigs) {}
};

RaceState ToRaceState(match::Outcome outcome) {
  switch (outcome) {
    case match::Outcome::kValid:
      return kDecidedValid;
    case match::Outcome::kInvalid:
      return kDecidedInvalid;
    case match::Outcome::kTimeout:
      return kDecidedTimeout;
    case match::Outcome::kStopped:
      return kUndecided;  // the loser: does not publish
  }
  return kUndecided;
}

}  // namespace

TwoThreadedBaseline::Result TwoThreadedBaseline::Evaluate(
    const graph::QueryGraph& q, const Options& options) {
  util::WallTimer timer;
  Result result;

  const QueryContext ctx = PrepareQuery(graph_, graph_sigs_, q);
  if (!ctx.feasible || ctx.candidates.empty()) {
    result.seconds = timer.Seconds();
    return result;
  }

  const match::Plan plan = match::MakeHeuristicPlan(q, graph_, q.pivot());
  Racer optimist(graph_, graph_sigs_);
  Racer pessimist(graph_, graph_sigs_);
  optimist.evaluator.BindQuery(q, ctx.query_sigs, plan);
  pessimist.evaluator.BindQuery(q, ctx.query_sigs, plan);

  for (const graph::NodeId u : ctx.candidates) {
    if (options.deadline.Expired()) {
      result.complete = false;
      break;
    }

    util::StopSource stop_source;
    std::atomic<int> state{kUndecided};

    auto publish = [&](match::Outcome outcome, bool from_optimist) {
      const RaceState decided = ToRaceState(outcome);
      if (decided == kUndecided) return;
      int expected = kUndecided;
      // acq_rel: the winner's release publishes its decision before the
      // loser (or the main thread) can acquire-observe the decided state;
      // only the single CAS winner touches the win counters, and the main
      // thread reads them after joining both racers.
      if (state.compare_exchange_strong(expected, decided,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        if (from_optimist) {
          ++result.optimistic_wins;
        } else {
          ++result.pessimistic_wins;
        }
        stop_source.RequestStop();
      }
    };

    auto run_optimist = [&] {
      match::PsiEvaluator::Options opts;
      opts.deadline = options.deadline;
      opts.stop = util::StopToken(&stop_source);
      const match::Outcome outcome =
          optimist.evaluator.EvaluateNodeOptimisticStrategy(
              u, opts, &optimist.stats);
      publish(outcome, /*from_optimist=*/true);
    };
    auto run_pessimist = [&] {
      match::PsiEvaluator::Options opts;
      opts.mode = match::PsiMode::kPessimistic;
      opts.deadline = options.deadline;
      opts.stop = util::StopToken(&stop_source);
      const match::Outcome outcome =
          pessimist.evaluator.EvaluateNode(u, opts, &pessimist.stats);
      publish(outcome, /*from_optimist=*/false);
    };

    std::thread t1(run_optimist);
    std::thread t2(run_pessimist);
    t1.join();
    t2.join();

    // Relaxed suffices: both racers were joined above, which already
    // orders their writes before this read.
    switch (state.load(std::memory_order_relaxed)) {
      case kDecidedValid:
        result.valid_nodes.push_back(u);
        break;
      case kDecidedInvalid:
        break;
      default:
        // Both racers timed out or were stopped by the global deadline.
        result.complete = false;
        break;
    }
    if (!result.complete) break;
  }

  result.optimistic_stats = optimist.stats;
  result.pessimistic_stats = pessimist.stats;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace psi::core

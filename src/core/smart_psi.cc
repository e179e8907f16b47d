#include "core/smart_psi.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <optional>

#include "core/query_context.h"
#include "match/candidates.h"
#include "match/parallel_search.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "signature/builders.h"
#include "util/fault_injection.h"
#include "util/stats.h"

namespace psi::core {

namespace {

using match::Outcome;
using match::PsiEvaluator;
using match::PsiMode;

/// Bundles one node evaluation under a mode: optimistic means the paper's
/// full optimistic strategy (super-optimistic pass + complete fallback).
Outcome RunMethod(PsiEvaluator& evaluator, graph::NodeId node, bool optimistic,
                  size_t super_limit, util::Deadline deadline,
                  uint64_t max_steps, util::StopToken stop,
                  match::SearchStats* stats, bool pivot_prefiltered = false) {
  PsiEvaluator::Options options;
  options.super_optimistic_limit = super_limit;
  options.max_steps = max_steps;
  options.deadline = deadline;
  options.stop = stop;
  options.pivot_prefiltered = pivot_prefiltered;
  if (optimistic) {
    return evaluator.EvaluateNodeOptimisticStrategy(node, options, stats);
  }
  options.mode = PsiMode::kPessimistic;
  return evaluator.EvaluateNode(node, options, stats);
}

/// MaxTime for a run whose method and plan took `base_steps` before (paper
/// §4.3: 2 × AvgT), never below twice the floor.
uint64_t MaxTimeSteps(double base_steps) {
  return SmartPsiEngine::kTimeoutFactor *
         std::max(static_cast<uint64_t>(std::llround(base_steps)),
                  SmartPsiEngine::kMinPreemptionSteps);
}

/// A run's steps as a cache entry's MaxTime base, saturated to its field.
uint32_t CacheSteps(uint64_t steps) {
  return static_cast<uint32_t>(std::min<uint64_t>(steps, UINT32_MAX));
}

/// Per-worker accumulation merged after the parallel evaluation phase.
struct WorkerState {
  std::vector<graph::NodeId> valid;
  match::SearchStats stats;
  size_t cache_hits = 0;
  size_t cache_mismatches = 0;
  size_t alpha_predictions = 0;
  size_t alpha_correct = 0;
  size_t method_recoveries = 0;
  size_t plan_fallbacks = 0;
  double predict_seconds = 0.0;
  bool incomplete = false;
};

}  // namespace

SmartPsiEngine::SmartPsiEngine(const graph::Graph& g, SmartPsiConfig config)
    : graph_(&g), config_(config), rng_(config.seed) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
  util::WallTimer timer;
  graph_sigs_ =
      signature::BuildSignatures(g, config_.signature_method,
                                 config_.signature_depth, g.num_labels(),
                                 pool_.get(), config_.signature_decay);
  signature_build_seconds_ = timer.Seconds();
}

SmartPsiEngine::SmartPsiEngine(SmartPsiConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
}

void SmartPsiEngine::Rebind(const graph::Graph& g,
                            const signature::SignatureMatrix* sigs) {
  assert(sigs != nullptr);
  if (graph_ == &g && sigs_view_ == sigs) return;  // steady-state fast path
  assert(sigs->num_rows() == g.num_nodes());
  assert(sigs->num_labels() >= g.num_labels());
  graph_ = &g;
  sigs_view_ = sigs;
  graph_sigs_ = signature::SignatureMatrix();  // drop any adopted matrix
  config_.signature_method = sigs->method();
  config_.signature_depth = sigs->depth();
  config_.signature_decay = sigs->decay();
}

PsiQueryResult SmartPsiEngine::Evaluate(const graph::QueryGraph& q,
                                        util::Deadline deadline,
                                        util::StopToken stop) {
  assert(q.has_pivot());
  assert(bound() && "Evaluate() on an unbound engine — call Rebind() first");
  util::WallTimer total_timer;
  PsiQueryResult result;

  const QueryContext ctx = PrepareQuery(*graph_, sigs(), q);
  result.num_candidates = ctx.candidates.size();
  if (!ctx.feasible || ctx.candidates.empty()) {
    result.total_seconds = total_timer.Seconds();
    return result;
  }

  // With a query-keyed cache the plan pool (and training sample) must be a
  // pure function of (engine seed, query): cached plan indices written by
  // one engine are then valid for every engine sharing the cache.
  const uint64_t query_salt =
      config_.query_keyed_cache ? q.Fingerprint() : 0;
  // Snapshot keying composes by XOR on top of the query salt: entries from
  // different snapshot generations land under different keys, and the epoch
  // stamp makes any residual collision observable (epoch_drops).
  const uint64_t cache_key_salt = query_salt ^ cache_salt_;
  util::Rng rng = config_.query_keyed_cache
                      ? util::Rng(config_.seed ^ query_salt)
                      : rng_.Fork();
  const std::vector<match::Plan> plan_pool = match::SamplePlanPool(
      q, *graph_, q.pivot(), kPlanPoolSize, rng);
  const size_t num_plans = plan_pool.size();

  const std::vector<graph::NodeId>& candidates = ctx.candidates;

  // ---------------------------------------------------------------------
  // Cache-first split (paper §4.2.3): a candidate whose decision an earlier
  // run confirmed needs neither training nor the models. Only the misses
  // are sampled for training and predicted; when they are too few for a
  // model to pay off (paper Table 4: ML overhead hurts on small inputs),
  // no model is fitted and they run pessimistically with the heuristic
  // plan.
  // ---------------------------------------------------------------------
  util::WallTimer lookup_timer;
  std::vector<std::optional<PredictionCache::Entry>> cached(candidates.size());
  std::vector<size_t> misses;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (config_.enable_cache) {
      cached[i] = active_cache_->Lookup(
          sigs().RowHash(candidates[i]) ^ cache_key_salt, cache_epoch_);
    }
    if (!cached[i]) misses.push_back(i);
  }
  const double lookup_seconds = lookup_timer.Seconds();
  const bool fit_models = misses.size() >= config_.min_candidates_for_ml;

  // ---------------------------------------------------------------------
  // Phase 1 — training sample drawn from the misses: ground-truth labels
  // for Model α, best plans and per-plan mean steps for Model β / MaxTime
  // (paper §4.2). Empty when no model is fitted. The draw is a
  // ceiling: training stops once it has spent its share of the query's
  // estimated work (kTrainingShare), and phase 2 evaluates the rest.
  // ---------------------------------------------------------------------
  util::WallTimer train_timer;
  std::vector<size_t> train_indices;
  if (fit_models) {
    const size_t want_train = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(config_.train_fraction *
                                      static_cast<double>(misses.size()))),
        1, std::min(kMaxTrainNodes, misses.size()));
    train_indices =
        util::SampleWithoutReplacement(misses.size(), want_train, rng);
    for (size_t& idx : train_indices) idx = misses[idx];
  }
  // Candidate indices phase 2 skips: training nodes, and model-free misses
  // the bulk pivot-signature sweep refutes.
  std::vector<uint8_t> settled(candidates.size(), 0);
  for (const size_t i : train_indices) settled[i] = 1;

  const size_t num_features = sigs().num_labels();
  ml::Dataset alpha_data(num_features);
  ml::Dataset beta_data(num_features);
  alpha_data.Reserve(train_indices.size());
  beta_data.Reserve(train_indices.size());
  std::vector<util::RunningStats> plan_steps(num_plans);
  util::RunningStats all_steps;

  match::SearchScratchPool::Lease trainer_scratch(&scratch_pool_);
  PsiEvaluator trainer(*graph_, sigs(), trainer_scratch.get());
  bool training_aborted = false;
  // Training's budget (see kTrainingShare): the steps of every plan run of
  // phase 1 so far against the best plans' steps per trained node.
  double train_steps = 0.0;
  double best_steps_sum = 0.0;
  size_t trained = 0;
  for (; trained < train_indices.size(); ++trained) {
    if (trained >= kMinTrainingNodes &&
        train_steps * static_cast<double>(trained) >=
            kTrainingShare * best_steps_sum *
                static_cast<double>(misses.size())) {
      // Over budget: the untried rest of the sample goes to phase 2.
      for (size_t k = trained; k < train_indices.size(); ++k) {
        settled[train_indices[k]] = 0;
      }
      break;
    }
    const size_t idx = train_indices[trained];
    const graph::NodeId u = candidates[idx];
    bool decided = false;
    bool node_valid = false;
    int32_t best_plan = 0;
    uint64_t best_steps = 0;

    // Escalating per-plan step limits (paper §4.2.2): try every plan under
    // a small budget; if none finishes, grow the budget and retry.
    uint64_t limit = kPlanStepLimitInit;
    for (size_t round = 0; round < kPlanEscalationRounds && !decided;
         ++round) {
      for (size_t p = 0; p < num_plans; ++p) {
        trainer.BindQuery(q, ctx.query_sigs, plan_pool[p]);
        // Once some plan finished in best_steps, a competitor is only
        // interesting if it beats that — cap its budget accordingly.
        const uint64_t budget = decided ? std::min(limit, best_steps) : limit;
        const Outcome outcome = RunMethod(
            trainer, u, /*optimistic=*/false, config_.super_optimistic_limit,
            deadline, budget, stop, &result.search);
        const uint64_t steps = trainer.steps();
        train_steps += steps;
        if (outcome == Outcome::kValid || outcome == Outcome::kInvalid) {
          plan_steps[p].Add(steps);
          all_steps.Add(steps);
          if (!decided || steps < best_steps) {
            best_plan = static_cast<int32_t>(p);
            best_steps = steps;
          }
          node_valid = outcome == Outcome::kValid;
          decided = true;
        }
      }
      limit *= kPlanStepLimitGrowth;
      if (deadline.Expired() || stop.StopRequested()) break;
    }
    if (!decided) {
      // No plan finished under any limit: heuristic plan, no plan budget.
      trainer.BindQuery(q, ctx.query_sigs, plan_pool[0]);
      const Outcome outcome = RunMethod(
          trainer, u, /*optimistic=*/false, config_.super_optimistic_limit,
          deadline, /*max_steps=*/0, stop, &result.search);
      best_steps = trainer.steps();
      train_steps += best_steps;
      if (outcome == Outcome::kValid || outcome == Outcome::kInvalid) {
        plan_steps[0].Add(best_steps);
        all_steps.Add(best_steps);
        node_valid = outcome == Outcome::kValid;
        best_plan = 0;
        decided = true;
      } else {
        // Query deadline expired mid-training.
        result.complete = false;
        training_aborted = true;
        break;
      }
    }

    best_steps_sum += best_steps;
    const auto row = sigs().row(u);
    alpha_data.AddExample(row, node_valid ? 1 : 0);
    beta_data.AddExample(row, best_plan);
    if (node_valid) result.valid_nodes.push_back(u);
    if (config_.enable_cache) {
      active_cache_->Insert(sigs().RowHash(u) ^ cache_key_salt,
                            {node_valid, static_cast<uint16_t>(best_plan),
                             CacheSteps(best_steps), cache_epoch_});
    }
  }

  result.num_training_nodes = trained;

  ml::RandomForest alpha;
  ml::RandomForest beta;
  if (fit_models && !training_aborted) {
    ml::ForestConfig forest;
    forest.num_trees = config_.forest_trees;
    alpha.Train(alpha_data, /*num_classes=*/2, forest, rng);
    if (config_.enable_plan_model && num_plans > 1) {
      beta.Train(beta_data, num_plans, forest, rng);
    }
  }
  // Exactly 0.0 when nothing was fitted: the timer measured no training.
  if (fit_models) result.train_seconds = train_timer.Seconds();
  if (training_aborted) {
    result.predict_seconds = lookup_seconds;
    std::sort(result.valid_nodes.begin(), result.valid_nodes.end());
    result.total_seconds = total_timer.Seconds();
    return result;
  }

  // ---------------------------------------------------------------------
  // Phase 2 — evaluation of every candidate not settled above with the
  // preemptive 3-state executor (paper §4.3), steered by its cache entry
  // or the models; model-free misses run the pessimist unlimited.
  // ---------------------------------------------------------------------
  util::WallTimer eval_timer;
  if (!fit_models && !misses.empty()) {
    // Everything the bulk sweep refutes is invalid; the survivors skip the
    // per-candidate pivot signature check.
    std::vector<graph::NodeId> kept(misses.size());
    for (size_t j = 0; j < misses.size(); ++j) {
      kept[j] = candidates[misses[j]];
    }
    match::FilterPivotCandidates(sigs(), ctx.query_sigs.row(q.pivot()), kept,
                                 result.search);
    // The sweep keeps candidate order, so one merge finds the refuted.
    size_t k = 0;
    for (const size_t i : misses) {
      if (k < kept.size() && kept[k] == candidates[i]) {
        ++k;
      } else {
        settled[i] = 1;
      }
    }
  }
  std::vector<size_t> remaining;
  remaining.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!settled[i]) remaining.push_back(i);
  }

  // One evaluation stack per work-stealing worker: scratch and evaluator.
  struct EvalWorker {
    WorkerState state;
    std::unique_ptr<match::SearchScratchPool::Lease> scratch;
    std::unique_ptr<PsiEvaluator> evaluator;
  };

  std::atomic<bool> global_incomplete{false};
  auto evaluate_one = [&](size_t r, EvalWorker& worker) {
    WorkerState& ws = worker.state;
    PsiEvaluator& evaluator = *worker.evaluator;
    {
      if (global_incomplete.load(std::memory_order_relaxed)) return;
      // Check before starting a candidate, not only inside the search (which
      // polls every kPollSteps steps): small searches finish between polls,
      // so without this an expired deadline could still start every
      // remaining candidate and overrun its budget unboundedly.
      if (deadline.Expired() || stop.StopRequested()) {
        ws.incomplete = true;
        global_incomplete.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t i = remaining[r];
      const graph::NodeId u = candidates[i];
      const auto row = sigs().row(u);

      // --- Prediction (cache, then models) --------------------------
      // With models fitted, an up-front miss is looked up again: a
      // signature twin evaluated earlier in this query may have confirmed
      // its decision since. Model-free runs insert nothing, so there is
      // nothing new to find.
      util::WallTimer predict_timer;
      const uint64_t hash = sigs().RowHash(u) ^ cache_key_salt;
      std::optional<PredictionCache::Entry> entry = cached[i];
      if (!entry && config_.enable_cache && fit_models) {
        entry = active_cache_->Lookup(hash, cache_epoch_);
      }
      const bool from_cache = entry.has_value();
      const bool model_free = !from_cache && !fit_models;
      bool predicted_valid = false;
      uint32_t plan_index = 0;
      uint64_t max_steps = 0;  // MaxTime
      if (from_cache) {
        predicted_valid = entry->valid;
        plan_index = std::min<uint32_t>(entry->plan_index,
                                        static_cast<uint32_t>(num_plans - 1));
        max_steps = MaxTimeSteps(entry->steps);
        ++ws.cache_hits;
      } else if (fit_models) {
        predicted_valid = alpha.Predict(row) == 1;
        if (config_.enable_plan_model && beta.trained()) {
          plan_index = static_cast<uint32_t>(
              std::clamp<int32_t>(beta.Predict(row), 0,
                                  static_cast<int32_t>(num_plans - 1)));
        }
        // AvgT: this plan's mean over completed training runs, or all plans'.
        const util::RunningStats& avg = plan_steps[plan_index];
        max_steps = MaxTimeSteps(avg.count() > 0 ? avg.mean()
                                                 : all_steps.mean());
      }
      if (!model_free) {
        // Chaos hooks: simulated Model α / Model β mispredictions. The
        // preemptive executor below is exactly the machinery that must
        // absorb these — a flip costs a state-2/3 recovery, never
        // correctness.
        if (PSI_INJECT_FAULT(util::faults::kSmartPredictFlip)) {
          predicted_valid = !predicted_valid;
        }
        if (num_plans > 1 &&
            PSI_INJECT_FAULT(util::faults::kSmartPlanMispredict)) {
          plan_index = (plan_index + 1) % static_cast<uint32_t>(num_plans);
        }
      }
      ws.predict_seconds += predict_timer.Seconds();

      // --- Preemptive execution (3 states) ---------------------------
      auto run = [&](bool optimistic, uint64_t limit) {
        return RunMethod(evaluator, u, optimistic,
                         config_.super_optimistic_limit, deadline, limit,
                         stop, &ws.stats, /*pivot_prefiltered=*/model_free);
      };
      Outcome outcome;
      uint32_t completed_plan = plan_index;
      evaluator.BindQuery(q, ctx.query_sigs, plan_pool[plan_index]);
      if (config_.enable_preemption && !model_free) {
        // State 1: predicted method + predicted plan, limited.
        outcome = run(predicted_valid, max_steps);
        // Chaos hook: pretend MaxTime expired even though state 1 finished,
        // forcing the recovery ladder. Both PSI methods are exact, so the
        // re-evaluation in state 2/3 reaches the same answer.
        if (outcome != Outcome::kTimeout && !deadline.Expired() &&
            PSI_INJECT_FAULT(util::faults::kSmartPreemptExpire)) {
          outcome = Outcome::kTimeout;
        }
        if (outcome == Outcome::kTimeout && !deadline.Expired()) {
          // State 2: opposite method, restarted, still limited — recovers
          // from Model α mispredictions.
          ++ws.method_recoveries;
          outcome = run(!predicted_valid, max_steps);
        }
        if (outcome == Outcome::kTimeout && !deadline.Expired()) {
          // State 3: predicted method + heuristic plan, no MaxTime —
          // recovers from Model β mispredictions.
          ++ws.plan_fallbacks;
          completed_plan = 0;
          evaluator.BindQuery(q, ctx.query_sigs, plan_pool[0]);
          outcome = run(predicted_valid, /*limit=*/0);
        }
      } else {
        // Unlimited: preemption off, or a model-free miss (pessimist,
        // heuristic plan).
        outcome = run(predicted_valid, /*limit=*/0);
      }

      if (outcome != Outcome::kValid && outcome != Outcome::kInvalid) {
        // Only the query deadline or a cancellation can get us here.
        ws.incomplete = true;
        global_incomplete.store(true, std::memory_order_relaxed);
        return;
      }
      const bool actual_valid = outcome == Outcome::kValid;
      if (actual_valid) ws.valid.push_back(u);
      if (from_cache) {
        // A cached decision that disagrees with the confirmed outcome means
        // the entry was stale or corrupted — the poisoning signal the
        // service's verify-on-sample detector consumes.
        if (predicted_valid != actual_valid) ++ws.cache_mismatches;
      } else if (!model_free) {
        ++ws.alpha_predictions;
        if (predicted_valid == actual_valid) ++ws.alpha_correct;
      }
      // The entry's MaxTime base is the completing run's steps: the
      // evaluator's last. Model-free runs confirm no prediction and are not
      // cached; a repeat of the small query runs model-free again.
      if (config_.enable_cache && !model_free) {
        active_cache_->Insert(hash, {actual_valid,
                                     static_cast<uint16_t>(completed_plan),
                                     CacheSteps(evaluator.steps()),
                                     cache_epoch_});
      }
    }
  };

  // Work-stealing dispatch (see parallel_search.h): contiguous initial
  // ranges, idle workers steal the back half of the busiest victim's range.
  // This replaces static 4×-oversubscribed chunking — one heavy-tailed
  // refutation no longer strands the candidates queued behind it.
  const size_t num_workers =
      pool_ != nullptr && remaining.size() > 1
          ? std::min(remaining.size(), pool_->num_threads())
          : 1;
  std::vector<EvalWorker> workers(num_workers);
  for (EvalWorker& w : workers) {
    w.scratch =
        std::make_unique<match::SearchScratchPool::Lease>(&scratch_pool_);
    w.evaluator =
        std::make_unique<PsiEvaluator>(*graph_, sigs(), w.scratch->get());
  }
  const uint64_t steals = match::RunWorkStealing(
      remaining.size(), num_workers, pool_.get(),
      [&](size_t item, size_t worker_index) {
        evaluate_one(item, workers[worker_index]);
      });
  result.search.work_steals += steals;

  for (const EvalWorker& worker : workers) {
    const WorkerState& ws = worker.state;
    result.valid_nodes.insert(result.valid_nodes.end(), ws.valid.begin(),
                              ws.valid.end());
    result.search += ws.stats;
    result.cache_hits += ws.cache_hits;
    result.cache_mismatches += ws.cache_mismatches;
    result.alpha_predictions += ws.alpha_predictions;
    result.alpha_correct += ws.alpha_correct;
    result.method_recoveries += ws.method_recoveries;
    result.plan_fallbacks += ws.plan_fallbacks;
    result.predict_seconds += ws.predict_seconds;
    if (ws.incomplete) result.complete = false;
  }
  result.eval_seconds = eval_timer.Seconds() - result.predict_seconds;
  result.predict_seconds += lookup_seconds;

  std::sort(result.valid_nodes.begin(), result.valid_nodes.end());
  result.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace psi::core

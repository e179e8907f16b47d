// End-to-end benchmark of the served Realist (see perfbench/README.md).
//
//   psi_perfbench --workload serve-hot|serve-cold-swap|mine-weibo
//                 --seed N --seconds S --trace 0|1 [--inject-wrong-answer]
//
// Drives the real service::PsiService / service::GraphCatalog /
// fsm::FsmMiner stack, checks every answer outside the timed phase, and
// prints one JSON object as the last line of stdout. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer breakdown, timed from
// this file around calls into each module's public functions (nothing in
// src/ is instrumented). Exit codes: 0 measured and correct, 1 a wrong
// answer or a failed consistency check, 2 bad arguments, 3 an invalid run
// (the open-loop generator fell behind its schedule).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pure_drivers.h"
#include "core/query_context.h"
#include "core/smart_psi.h"
#include "fsm/canonical.h"
#include "fsm/miner.h"
#include "graph/datasets.h"
#include "graph/query_extractor.h"
#include "service/catalog.h"
#include "service/service.h"
#include "signature/kernels.h"
#include "signature/sparse_requirement.h"
#include "util/random.h"
#include "util/timer.h"

#ifndef PSI_BENCH_BUILD_TYPE
#define PSI_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PSI_BENCH_GIT_SHA
#define PSI_BENCH_GIT_SHA "unknown"
#endif

namespace {

using namespace psi;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants. The data graphs and the query corpus are fixed (the
// repository benches' stand-in seed); --seed draws the traffic over them:
// Zipf draws, arrival times and the order of the distinct queries.

constexpr uint64_t kGraphSeed = 20190326;
constexpr uint64_t kQuerySeed = 20190326;
constexpr double kYouTubeScale = 0.004;  // 20,407 nodes, 170,185 edges
constexpr double kWeiboScale = 0.0005;   // 827 nodes, ~170k edges
constexpr size_t kQuerySize = 5;
constexpr size_t kWorkers = 2;
// Set-up (catalog publish + service start) is repeated kSetupRepeats times,
// half before and half after the measured phase, kSetupGapSeconds apart.
// One set-up sample is the mean of kSetupGroup set-ups in a row, and
// setup_s is the median of the samples. One ~10–20 ms publish does not
// repeat within a tenth: set-ups in one process switch between a fast and
// a slow level (up to 1.6x apart) within a few hundred ms as the host's
// load moves, and the median of single set-ups jumped between the two
// levels from run to run (spread 0.22 over 10 mine-weibo runs, against
// 0.17 for the median of means of 6).
constexpr size_t kSetupRepeats = 24;
constexpr size_t kSetupGroup = 6;
constexpr double kSetupGapSeconds = 0.06;

// serve-hot: closed loop, one client thread per worker, queries drawn Zipf
// (rank = corpus order) from the first kHotPool corpus queries, so most
// requests repeat one and the cache and warmed engines do the work.
constexpr size_t kHotPool = 192;
constexpr double kHotZipf = 0.8;
constexpr double kHotLimitSeconds = 0.5;

// serve-cold-swap: open loop, Poisson arrivals at about a third of the cold
// capacity, every query distinct, deadline = latency limit, the graph
// republished on a fixed cadence. Three workers: with two, one heavy query
// (up to ~0.8 s) leaves the other worker above 100 % load, and p50 ranged
// over 27–44 ms in 3 seeds as bursts formed or not. A third, not a half:
// at 36 q/s (40–50 % busy) a quarter of the requests queued behind heavy
// ones, p50 was 1.35x the median exec time, and a host slowdown moved p50
// further than it moved exec. 30 q/s over a 34 s run still gives the
// 1,020 latency samples p99 needs.
constexpr size_t kColdWorkers = 3;
constexpr double kColdRate = 30.0;
constexpr double kColdLimitSeconds = 2.0;
constexpr double kSwapPeriodSeconds = 2.0;
constexpr double kSwapGapSeconds = 0.06;  // ~3 publishes
// A generator that sent its p99 request later than this behind schedule
// measured its own lateness, not the service: the run is invalid.
constexpr double kMaxLateP99Seconds = 0.05;

// mine-weibo: served FSM mining (Figure 12 regime), repeated back to back.
constexpr uint64_t kMineSupport = 40;
constexpr size_t kMineMaxEdges = 4;
constexpr size_t kMineThreads = 2;
// The miner submits as many batches at once as the service's queue holds,
// then drains them in order. At the default depth (256) a probe's latency
// was its wait behind up to 255 other batches: p50 0.3 s, p99 1.0 s, pure
// backlog that tracked host speed and spread 0.17–0.28 over 10 runs. One
// batch per worker keeps latency to the probe's own batch.
constexpr size_t kMineQueueDepth = kWorkers;
constexpr double kMineJobLimitSeconds = 30.0;

// Traced runs: share of --seconds the single-threaded replay may take.
constexpr double kReplayBudgetShare = 0.5;

// ---------------------------------------------------------------------------
// Small helpers.

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in print order; Set() replaces a value already present.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Inputs.

graph::Graph MakeYouTube() {
  return graph::MakeDataset(graph::Dataset::kYouTube, kYouTubeScale,
                            kGraphSeed);
}

graph::Graph MakeWeibo() {
  return graph::MakeDataset(graph::Dataset::kWeibo, kWeiboScale, kGraphSeed);
}

/// The query corpus: the first `count` 5-node pivoted queries extracted
/// (random walk with restart, paper §5.1) from kQuerySeed. Like the graph
/// it is fixed, so --seed varies the traffic over it, not the queries
/// themselves. Query cost on this graph is heavy-tailed (p50 ~10 ms, max
/// ~0.8 s) and varies sixfold even at equal candidate count, so a corpus
/// drawn from --seed moved serve-hot p50 by 30 % and throughput by 14 %
/// between seeds (interquartile spread over 5 seeds, against ~4 % between
/// runs of one seed), and serve-cold-swap p99 over 0.32–0.59 s in 3 seeds.
std::vector<graph::QueryGraph> Corpus(const graph::Graph& g, size_t count) {
  graph::QueryExtractor extractor(g);
  util::Rng rng(kQuerySeed);
  std::vector<graph::QueryGraph> out;
  while (out.size() < count) {
    graph::QueryGraph q = extractor.Extract(kQuerySize, rng);
    if (q.num_nodes() == kQuerySize && q.has_pivot()) out.push_back(std::move(q));
  }
  return out;
}

/// Share of requests whose query (structure and pivot) appeared earlier in
/// the same run.
double RepeatFraction(const std::vector<const graph::QueryGraph*>& stream) {
  std::set<std::string> seen;
  size_t repeats = 0;
  for (const graph::QueryGraph* q : stream) {
    if (!seen.insert(q->ToString()).second) ++repeats;
  }
  return Ratio(static_cast<double>(repeats),
               static_cast<double>(stream.size()));
}

// ---------------------------------------------------------------------------
// Set-up: catalog publish plus service start.

service::ServiceOptions MakeServiceOptions(
    size_t workers = kWorkers,
    size_t queue_depth = service::ServiceOptions{}.max_queue_depth) {
  service::ServiceOptions options;
  options.num_workers = workers;
  options.search_threads = 1;
  options.max_queue_depth = queue_depth;
  return options;
}

struct ServingStack {
  std::unique_ptr<service::GraphCatalog> catalog;
  std::unique_ptr<service::PsiService> service;
  double setup_seconds = 0.0;
  service::SnapshotTimings timings;
};

/// Publishes a clone of `g` into a fresh catalog and starts a service over
/// it; the clone is made before the clock starts.
ServingStack StartStack(
    const graph::Graph& g, size_t workers = kWorkers,
    size_t queue_depth = service::ServiceOptions{}.max_queue_depth) {
  graph::Graph copy = g.Clone();
  ServingStack stack;
  util::WallTimer timer;
  stack.catalog = std::make_unique<service::GraphCatalog>();
  // Default build options: serial, compact codes, row-hash prewarm.
  auto published = stack.catalog->BuildAndPublish("default", std::move(copy));
  stack.service = std::make_unique<service::PsiService>(
      stack.catalog.get(), MakeServiceOptions(workers, queue_depth));
  stack.setup_seconds = timer.Seconds();
  if (!published.ok()) {
    std::fprintf(stderr, "perfbench: publish failed\n");
    std::exit(1);
  }
  stack.timings = published.value()->timings();
  return stack;
}

/// Appends the samples of kSetupRepeats / 2 set-ups.
void MeasureSetups(const graph::Graph& g, size_t workers,
                   std::vector<double>* samples,
                   std::vector<service::SnapshotTimings>* timings) {
  double group_seconds = 0.0;
  for (size_t i = 1; i <= kSetupRepeats / 2; ++i) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kSetupGapSeconds));
    ServingStack stack = StartStack(g, workers);
    group_seconds += stack.setup_seconds;
    timings->push_back(stack.timings);
    if (i % kSetupGroup == 0) {
      samples->push_back(group_seconds / kSetupGroup);
      group_seconds = 0.0;
    }
  }
}

// ---------------------------------------------------------------------------
// One request as the benchmark saw it. `query` indexes the run's distinct
// query list; the answer is checked after the phase.

struct Span {
  size_t query = 0;
  double due = 0.0;      // scheduled send (open loop) or submit (closed)
  double submit = 0.0;
  double latency = 0.0;  // from `due` to completion
  double service_latency = 0.0;  // admission to completion, service-side
  double exec = 0.0;
  double client_latency = -1.0;  // submit to completion as the client saw it
  service::RequestStatus status = service::RequestStatus::kRejected;
  std::vector<graph::NodeId> answer;
};

struct ServePhase {
  std::vector<Span> spans;
  double wall_seconds = 0.0;
  std::vector<service::SnapshotTimings> timings;
  std::vector<double> publish_seconds;  // swaps made while serving
  service::ServiceStats stats;
  double rss_mb = 0.0;
};

service::QueryRequest MakeRequest(const graph::QueryGraph& q, uint64_t id,
                                  double deadline) {
  service::QueryRequest request;
  request.id = id;
  request.query = q;
  request.method = service::Method::kSmart;
  request.deadline_seconds = deadline;
  return request;
}

/// serve-hot: each of kWorkers client threads keeps one Execute in flight.
ServePhase RunHot(const graph::Graph& g,
                  const std::vector<graph::QueryGraph>& pool, uint64_t seed,
                  double seconds) {
  ServePhase phase;
  ServingStack stack = StartStack(g);
  phase.timings.push_back(stack.timings);
  service::PsiService& svc = *stack.service;

  // Warm-up pass: every pool query once, so the timed phase starts with the
  // cache and engines in their steady state.
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> warmers;
    for (size_t t = 0; t < kWorkers; ++t) {
      warmers.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < pool.size();) {
          svc.Execute(MakeRequest(pool[i], 0, 0.0));
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }

  std::vector<double> cdf(pool.size());
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kHotZipf);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  std::vector<std::vector<Span>> per_client(kWorkers);
  const double start = Now();
  const double end = start + seconds;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kWorkers; ++c) {
    clients.emplace_back([&, c] {
      // Draws follow a Weyl sequence (step 1/φ) from a seeded offset, so a
      // run's empirical Zipf frequencies match the target closely. With
      // independent draws, p50 moved 38 % between seeds: the popular
      // entries are atoms of the latency distribution, and a few percent
      // more or fewer draws of one moves the median across it.
      util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101 + c);
      double u = rng.NextDouble();
      uint64_t id = (c + 1) * 1000000000ULL;
      while (Now() < end) {
        u += 0.6180339887498949;
        u -= std::floor(u);
        const size_t idx = std::min<size_t>(
            pool.size() - 1,
            static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin()));
        Span span;
        span.query = idx;
        span.due = span.submit = Now();
        service::QueryResponse response =
            svc.Execute(MakeRequest(pool[idx], ++id, 0.0));
        const double done = Now();
        span.latency = done - span.due;
        span.client_latency = done - span.submit;
        span.service_latency = response.latency_seconds;
        span.exec = response.exec_seconds;
        span.status = response.status;
        span.answer = std::move(response.valid_nodes);
        per_client[c].push_back(std::move(span));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  phase.wall_seconds = Now() - start;
  phase.rss_mb = PeakRssMb();
  phase.stats = svc.Stats();
  for (auto& spans : per_client) {
    for (Span& s : spans) phase.spans.push_back(std::move(s));
  }
  std::sort(phase.spans.begin(), phase.spans.end(),
            [](const Span& a, const Span& b) { return a.submit < b.submit; });
  return phase;
}

/// serve-cold-swap: Poisson arrivals sent from this thread on schedule. The
/// same thread republishes the graph every kSwapPeriodSeconds, in the first
/// arrival gap of at least kSwapGapSeconds after the swap falls due, so the
/// thread budget leaves room for a third worker.
ServePhase RunColdSwap(const graph::Graph& g,
                       const std::vector<graph::QueryGraph>& queries,
                       const std::vector<double>& offsets, double seconds) {
  ServePhase phase;
  ServingStack stack = StartStack(g, kColdWorkers);
  phase.timings.push_back(stack.timings);
  service::PsiService& svc = *stack.service;

  const double start = Now() + 0.05;
  double next_swap = start + kSwapPeriodSeconds;
  auto sleep_until = [](double t) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(t))));
  };
  std::vector<std::optional<std::future<service::QueryResponse>>> futures;
  for (size_t i = 0; i < queries.size() && offsets[i] < seconds; ++i) {
    const double due = start + offsets[i];
    if (Now() >= next_swap && due - Now() >= kSwapGapSeconds) {
      graph::Graph copy = g.Clone();
      util::WallTimer timer;
      auto published =
          stack.catalog->BuildAndPublish("default", std::move(copy));
      if (published.ok()) {
        phase.publish_seconds.push_back(timer.Seconds());
        phase.timings.push_back(published.value()->timings());
      }
      next_swap += kSwapPeriodSeconds;
    }
    sleep_until(due);
    Span span;
    span.query = i;
    span.due = due;
    span.submit = Now();
    futures.push_back(
        svc.Submit(MakeRequest(queries[i], i + 1, kColdLimitSeconds)));
    phase.spans.push_back(std::move(span));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Span& span = phase.spans[i];
    if (!futures[i].has_value()) continue;  // shed at admission
    service::QueryResponse response = futures[i]->get();
    span.service_latency = response.latency_seconds;
    span.latency = (span.submit - span.due) + response.latency_seconds;
    span.exec = response.exec_seconds;
    span.status = response.status;
    span.answer = std::move(response.valid_nodes);
  }
  phase.wall_seconds = Now() - start;
  phase.rss_mb = PeakRssMb();
  phase.stats = svc.Stats();
  return phase;
}

// ---------------------------------------------------------------------------
// Answer checks: the pure pessimistic driver is the reference.

std::vector<std::vector<graph::NodeId>> PessimisticAnswers(
    const service::GraphSnapshot& snapshot,
    const std::vector<graph::QueryGraph>& queries,
    const std::vector<bool>& needed) {
  std::vector<std::vector<graph::NodeId>> answers(queries.size());
  std::atomic<size_t> next{0};
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
        if (!needed[i]) continue;
        core::PureDriverOptions options;
        options.strategy = core::PureStrategy::kPessimistic;
        answers[i] = core::EvaluatePure(snapshot.graph(),
                                        snapshot.signatures(), queries[i],
                                        options)
                         .valid_nodes;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return answers;
}

struct Verdict {
  size_t attempted = 0;
  size_t ok = 0;         // kOk and the answer matches the reference
  size_t slo_ok = 0;     // ... and within the latency limit
  size_t wrong = 0;      // kOk with a wrong answer
};

/// Checks every kOk answer of a phase against the reference answers.
Verdict CheckServe(const std::vector<std::vector<graph::NodeId>>& reference,
                   const std::vector<Span>& spans, double limit) {
  Verdict v;
  for (const Span& s : spans) {
    ++v.attempted;
    if (s.status != service::RequestStatus::kOk) continue;
    if (s.answer != reference[s.query]) {
      ++v.wrong;
      continue;
    }
    ++v.ok;
    if (s.latency <= limit) ++v.slo_ok;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Single-threaded replay: times each layer's public entry point in turn.

struct Replay {
  size_t queries = 0;
  double wall = 0.0;
  double prepare = 0.0, filter = 0.0, filter_float = 0.0;
  double smart = 0.0, train = 0.0, predict = 0.0, eval = 0.0;
  double pess = 0.0;
  double candidates = 0.0, prescreen_in = 0.0, prescreen_kept = 0.0;
  double training_nodes = 0.0, cache_hits = 0.0, smart_candidates = 0.0;
  double alpha_predictions = 0.0, alpha_correct = 0.0;
  double recoveries = 0.0, fallbacks = 0.0;
  double recursive_calls = 0.0, examined = 0.0, sig_checks = 0.0,
         sig_pruned = 0.0;

  /// |wall − sum of the timed stages| / wall.
  double StageSumError() const {
    const double sum = prepare + filter + filter_float + smart + pess;
    return Ratio(std::fabs(wall - sum), wall);
  }
};

/// `warm` queries go through the engine once, untimed, before the replay
/// (serve-hot's service was warmed the same way).
Replay RunReplay(const graph::Graph& g,
                 const std::vector<const graph::QueryGraph*>& stream,
                 const std::vector<graph::QueryGraph>& warm, bool with_smart,
                 double budget_seconds) {
  service::GraphCatalog catalog;
  const auto snapshot = catalog.BuildAndPublish("replay", g.Clone()).value();
  service::SnapshotBuildOptions float_only;
  float_only.build_compact_signatures = false;
  const auto float_snapshot =
      catalog.BuildAndPublish("float", g.Clone(), float_only).value();
  const signature::SignatureMatrix& sigs = snapshot->signatures();
  const signature::CompactSignatureMatrix* compact = sigs.compact();

  // The engine is configured and keyed exactly as a service worker's.
  core::SmartPsiConfig config = MakeServiceOptions().engine;
  config.num_threads = 1;
  config.query_keyed_cache = true;
  core::PredictionCache cache;
  core::SmartPsiEngine engine(config);
  engine.UseSharedCache(&cache);
  engine.Rebind(snapshot->graph(), &sigs);
  engine.set_cache_keying(snapshot->cache_salt(), snapshot->version());
  if (with_smart) {
    for (const graph::QueryGraph& q : warm) engine.Evaluate(q);
  }

  Replay r;
  const double start = Now();
  for (const graph::QueryGraph* q : stream) {
    if (r.queries > 0 && Now() - start > budget_seconds) break;
    ++r.queries;
    double t0 = Now();
    const core::QueryContext context =
        core::PrepareQuery(snapshot->graph(), sigs, *q);
    double t1 = Now();
    r.prepare += t1 - t0;
    r.candidates += static_cast<double>(context.candidates.size());

    if (context.feasible) {
      const signature::SparseRequirement requirement(
          context.query_sigs.row(q->pivot()));
      std::vector<graph::NodeId> kept = context.candidates;
      std::vector<graph::NodeId> kept_float = context.candidates;
      t0 = Now();
      signature::FilterCandidates(sigs, requirement, kept);
      t1 = Now();
      signature::FilterCandidates(float_snapshot->signatures(), requirement,
                                  kept_float);
      const double t2 = Now();
      r.filter += t1 - t0;
      r.filter_float += t2 - t1;
      if (compact != nullptr && requirement.nnz() > 0) {
        for (const graph::NodeId c : context.candidates) {
          r.prescreen_in += 1.0;
          if (signature::internal::CompactRowMaySatisfy(compact->row(c),
                                                        requirement)) {
            r.prescreen_kept += 1.0;
          }
        }
      }
    }

    if (with_smart) {
      t0 = Now();
      const core::PsiQueryResult result = engine.Evaluate(*q);
      t1 = Now();
      r.smart += t1 - t0;
      r.train += result.train_seconds;
      r.predict += result.predict_seconds;
      r.eval += result.eval_seconds;
      r.training_nodes += static_cast<double>(result.num_training_nodes);
      r.cache_hits += static_cast<double>(result.cache_hits);
      r.smart_candidates += static_cast<double>(result.num_candidates);
      r.alpha_predictions += static_cast<double>(result.alpha_predictions);
      r.alpha_correct += static_cast<double>(result.alpha_correct);
      r.recoveries += static_cast<double>(result.method_recoveries);
      r.fallbacks += static_cast<double>(result.plan_fallbacks);
    }

    core::PureDriverOptions options;
    options.strategy = core::PureStrategy::kPessimistic;
    t0 = Now();
    const core::PureDriverResult pure =
        core::EvaluatePure(snapshot->graph(), sigs, *q, options);
    t1 = Now();
    r.pess += t1 - t0;
    r.recursive_calls += static_cast<double>(pure.stats.recursive_calls);
    r.examined += static_cast<double>(pure.stats.candidates_examined);
    r.sig_checks += static_cast<double>(pure.stats.signature_checks);
    r.sig_pruned += static_cast<double>(pure.stats.pruned_by_signature);
  }
  r.wall = Now() - start;
  return r;
}

/// Reports the replay's metrics; false (with a message) when its stage
/// self-times miss its wall time by more than 5 %.
bool ReportReplay(const Replay& r, bool with_smart, MetricSet& m,
                  std::set<std::string>& measured) {
  const double n = static_cast<double>(std::max<size_t>(1, r.queries));
  auto put = [&](const std::string& name, double value, const char* unit) {
    m.Set(name, value, unit);
    measured.insert(name);
  };
  put("core.prepare_s", r.prepare / n, "s");
  put("core.candidates_per_query", r.candidates / n, "count");
  put("signature.filter_s", r.filter / n, "s");
  put("signature.filter_float_only_s", r.filter_float / n, "s");
  put("signature.prescreen_keep_frac", Ratio(r.prescreen_kept, r.prescreen_in),
      "ratio");
  put("match.pess_eval_s", r.pess / n, "s");
  put("match.recursive_calls_per_query", r.recursive_calls / n, "count");
  put("match.candidates_examined_per_query", r.examined / n, "count");
  put("match.signature_prune_frac", Ratio(r.sig_pruned, r.sig_checks),
      "ratio");
  if (with_smart) {
    put("core.train_s", r.train / n, "s");
    put("core.predict_s", r.predict / n, "s");
    put("core.eval_s", r.eval / n, "s");
    put("core.other_s", (r.smart - r.train - r.predict - r.eval) / n, "s");
    put("core.training_nodes_per_query", r.training_nodes / n, "count");
    put("core.candidate_cache_hit_frac",
        Ratio(r.cache_hits, r.smart_candidates), "ratio");
    put("core.alpha_accuracy", Ratio(r.alpha_correct, r.alpha_predictions),
        "ratio");
    put("core.method_recoveries_per_query", r.recoveries / n, "count");
    put("core.plan_fallbacks_per_query", r.fallbacks / n, "count");
  }
  put("bench.replay_queries", static_cast<double>(r.queries), "count");
  put("bench.stage_sum_err_frac", r.StageSumError(), "ratio");
  if (r.StageSumError() <= 0.05) return true;
  std::printf("# FAIL: replay stage self-times miss wall time by %.1f%%\n",
              100.0 * r.StageSumError());
  return false;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_wrong = false;
};

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

void PrintHeader(const Args& args) {
  std::printf(
      "# run host=%s nproc=%u build=%s sha=%s workload=%s seed=%llu "
      "seconds=%g trace=%d avx2=%d fault_injection=%d\n",
      HostName().c_str(), std::thread::hardware_concurrency(),
      PSI_BENCH_BUILD_TYPE, PSI_BENCH_GIT_SHA, args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, signature::KernelsUseAvx2() ? 1 : 0,
      PSI_FAULT_INJECTION_ENABLED);
}

/// Host speed probe: median milliseconds of a fixed single-threaded integer
/// loop. It does no work of the benchmark; the steadiness report uses it to
/// tell a move of the host's speed from a move of the program.
double HostProbeMs() {
  std::vector<double> ms;
  for (int k = 0; k < 7; ++k) {
    volatile uint64_t x = 1;
    const double t0 = Now();
    for (int i = 0; i < 20000000; ++i) x = x * 6364136223846793005ULL + 1;
    ms.push_back(1e3 * (Now() - t0));
  }
  return Median(ms);
}

/// The host's {steal, total} CPU ticks over all CPUs, from /proc/stat; zero
/// where it cannot be read. Steal is time the hypervisor gave this VM's
/// CPUs to others.
std::pair<double, double> HostCpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long v : t) total += static_cast<double>(v);
  return {static_cast<double>(t[7]), total};
}

const std::pair<double, double> kCpuTicksAtStart = HostCpuTicks();

void PrintSamples(const char* what, const std::vector<double>& seconds) {
  std::printf("# %s samples (ms):", what);
  for (const double s : seconds) std::printf(" %.2f", 1e3 * s);
  std::printf("\n");
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricSet& metrics) {
  const std::pair<double, double> now = HostCpuTicks();
  std::printf("# host steal %.3f %% of CPU time during the run\n",
              100.0 * Ratio(now.first - kCpuTicksAtStart.first,
                            now.second - kCpuTicksAtStart.second));
  for (const Metric& m : metrics.all()) {
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Per-layer metrics every workload prints; the ones a workload does not
/// exercise stay 0 and are absent from its "measured" line.
const char* const kPerLayer[][2] = {
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p99_s", "s"},
    {"service.exec_p50_s", "s"},
    {"service.exec_p99_s", "s"},
    {"service.rejected_frac", "ratio"},
    {"service.timeout_frac", "ratio"},
    {"service.cache_hit_frac", "ratio"},
    {"service.cache_entries", "count"},
    {"service.batch_context_hit_frac", "ratio"},
    {"service.probes_per_batch", "count"},
    {"service.catalog.signature_build_s", "s"},
    {"service.catalog.compact_build_s", "s"},
    {"service.catalog.prewarm_s", "s"},
    {"service.catalog.publishes", "count"},
    {"core.prepare_s", "s"},
    {"core.candidates_per_query", "count"},
    {"core.train_s", "s"},
    {"core.predict_s", "s"},
    {"core.eval_s", "s"},
    {"core.other_s", "s"},
    {"core.training_nodes_per_query", "count"},
    {"core.candidate_cache_hit_frac", "ratio"},
    {"core.alpha_accuracy", "ratio"},
    {"core.method_recoveries_per_query", "count"},
    {"core.plan_fallbacks_per_query", "count"},
    {"signature.filter_s", "s"},
    {"signature.filter_float_only_s", "s"},
    {"signature.prescreen_keep_frac", "ratio"},
    {"match.pess_eval_s", "s"},
    {"match.recursive_calls_per_query", "count"},
    {"match.candidates_examined_per_query", "count"},
    {"match.signature_prune_frac", "ratio"},
    {"fsm.candidates", "count"},
    {"fsm.frequent", "count"},
    {"fsm.inproc_job_s", "s"},
    {"fsm.served_over_inproc", "ratio"},
    {"bench.late_p99_s", "s"},
    {"bench.repeat_frac", "ratio"},
    {"bench.swaps", "count"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.replay_queries", "count"},
    {"bench.stage_sum_err_frac", "ratio"},
};

void ZeroPerLayer(MetricSet& m) {
  for (const auto& entry : kPerLayer) m.Set(entry[0], 0.0, entry[1]);
}

void PrintMeasured(const std::set<std::string>& measured) {
  std::string line = "# measured per-layer metrics:";
  for (const auto& entry : kPerLayer) {
    if (measured.count(entry[0]) != 0) line += std::string(" ") + entry[0];
  }
  std::printf("%s\n", line.c_str());
}

void ReportCatalog(const std::vector<service::SnapshotTimings>& timings,
                   double publishes, MetricSet& m,
                   std::set<std::string>& measured) {
  std::vector<double> sig, compact, prewarm;
  for (const service::SnapshotTimings& t : timings) {
    sig.push_back(t.signature_build_seconds);
    compact.push_back(t.compact_build_seconds);
    prewarm.push_back(t.prewarm_seconds);
  }
  m.Set("service.catalog.signature_build_s", Median(sig), "s");
  m.Set("service.catalog.compact_build_s", Median(compact), "s");
  m.Set("service.catalog.prewarm_s", Median(prewarm), "s");
  m.Set("service.catalog.publishes", publishes, "count");
  for (const char* name :
       {"service.catalog.signature_build_s", "service.catalog.compact_build_s",
        "service.catalog.prewarm_s", "service.catalog.publishes"}) {
    measured.insert(name);
  }
}

/// Span consistency: queue wait (service latency − exec) is never negative,
/// and a closed-loop client never saw a request finish faster than the
/// service timed it.
size_t InconsistentSpans(const std::vector<Span>& spans) {
  size_t bad = 0;
  for (const Span& s : spans) {
    if (s.status == service::RequestStatus::kRejected) continue;
    const double queue_wait = s.service_latency - s.exec;
    if (queue_wait < -1e-9 || s.latency + 1e-9 < s.service_latency) ++bad;
    if (s.client_latency >= 0.0 && s.client_latency + 1e-9 < s.service_latency) {
      ++bad;
    }
  }
  return bad;
}

void ReportServiceSpans(const ServePhase& phase, MetricSet& m,
                        std::set<std::string>& measured) {
  std::vector<double> wait, exec;
  for (const Span& s : phase.spans) {
    if (s.status == service::RequestStatus::kRejected) continue;
    wait.push_back(s.service_latency - s.exec);
    exec.push_back(s.exec);
  }
  const auto& metrics = phase.stats.metrics;
  const double attempted = static_cast<double>(phase.spans.size());
  m.Set("service.queue_wait_p50_s", Quantile(wait, 0.5), "s");
  m.Set("service.queue_wait_p99_s", Quantile(wait, 0.99), "s");
  m.Set("service.exec_p50_s", Quantile(exec, 0.5), "s");
  m.Set("service.exec_p99_s", Quantile(exec, 0.99), "s");
  m.Set("service.rejected_frac",
        Ratio(static_cast<double>(metrics.rejected), attempted), "ratio");
  m.Set("service.timeout_frac",
        Ratio(static_cast<double>(metrics.timed_out), attempted), "ratio");
  m.Set("service.cache_hit_frac", phase.stats.cache.HitRate(), "ratio");
  m.Set("service.cache_entries", static_cast<double>(phase.stats.cache_entries),
        "count");
  for (const char* name :
       {"service.queue_wait_p50_s", "service.queue_wait_p99_s",
        "service.exec_p50_s", "service.exec_p99_s", "service.rejected_frac",
        "service.timeout_frac", "service.cache_hit_frac",
        "service.cache_entries"}) {
    measured.insert(name);
  }
}

// ---------------------------------------------------------------------------
// Serving workloads.

struct ServeInputs {
  std::vector<graph::QueryGraph> queries;  // distinct list spans index into
  std::vector<double> offsets;             // open loop: send offsets
  double limit = 0.0;
  bool open_loop = false;
  size_t workers = kWorkers;
};

ServeInputs MakeServeInputs(const graph::Graph& g, const Args& args) {
  ServeInputs in;
  if (args.workload == "serve-hot") {
    in.queries = Corpus(g, kHotPool);
    in.limit = kHotLimitSeconds;
    return in;
  }
  // A Poisson process conditioned on its count: N = rate × seconds
  // arrivals at sorted uniform times, so throughput does not carry the
  // count's own ±3 % noise.
  util::Rng rng(args.seed * 0x2545f4914f6cdd1dULL + 7);
  in.open_loop = true;
  in.limit = kColdLimitSeconds;
  in.workers = kColdWorkers;
  const size_t n = static_cast<size_t>(std::lround(kColdRate * args.seconds));
  for (size_t i = 0; i < n; ++i) {
    in.offsets.push_back(rng.NextDouble() * args.seconds);
  }
  std::sort(in.offsets.begin(), in.offsets.end());
  in.queries = Corpus(g, n);
  for (size_t i = n; i > 1; --i) {
    std::swap(in.queries[i - 1], in.queries[rng.NextBounded(i)]);
  }
  return in;
}

int RunServe(const Args& args) {
  const graph::Graph g = MakeYouTube();
  const ServeInputs in = MakeServeInputs(g, args);

  std::vector<service::SnapshotTimings> setup_timings;
  std::vector<double> setups;
  MeasureSetups(g, in.workers, &setups, &setup_timings);
  // Spans are recorded in every run; --trace 1 only adds the replay after
  // the phase, so the traced phase is the untraced one.
  ServePhase phase =
      in.open_loop ? RunColdSwap(g, in.queries, in.offsets, args.seconds)
                   : RunHot(g, in.queries, args.seed, args.seconds);
  MeasureSetups(g, in.workers, &setups, &setup_timings);

  std::vector<bool> needed(in.queries.size(), false);
  for (const Span& s : phase.spans) {
    if (s.status == service::RequestStatus::kOk) needed[s.query] = true;
  }
  service::GraphCatalog reference_catalog;
  const auto reference =
      reference_catalog.BuildAndPublish("reference", g.Clone()).value();
  const auto answers = PessimisticAnswers(*reference, in.queries, needed);
  if (args.inject_wrong) {
    for (Span& s : phase.spans) {
      if (s.status == service::RequestStatus::kOk) {
        s.answer.push_back(static_cast<graph::NodeId>(g.num_nodes()));
        break;
      }
    }
  }
  const Verdict verdict = CheckServe(answers, phase.spans, in.limit);
  size_t inconsistent = InconsistentSpans(phase.spans);

  std::vector<double> latencies;
  std::vector<const graph::QueryGraph*> stream;
  double busy = 0.0;
  std::vector<double> exec, wait, late;
  for (const Span& s : phase.spans) {
    if (s.status != service::RequestStatus::kRejected) {
      latencies.push_back(s.latency);
    }
    stream.push_back(&in.queries[s.query]);
    busy += s.exec;
    exec.push_back(s.exec);
    wait.push_back(s.service_latency - s.exec);
    late.push_back(s.submit - s.due);
  }
  const double late_p99 = Quantile(late, 0.99);
  const double repeat_frac = RepeatFraction(stream);

  std::printf(
      "# %s: %zu requests (%zu latency samples), %zu ok, %zu wrong, "
      "%.1f s phase, %zu workers %.0f %% busy, late p99 %.3g s, "
      "repeat_frac %.3f, swaps %zu\n",
      args.workload.c_str(), phase.spans.size(), latencies.size(),
      verdict.ok, verdict.wrong, phase.wall_seconds, in.workers,
      100.0 * busy / (static_cast<double>(in.workers) * phase.wall_seconds),
      late_p99, repeat_frac, phase.publish_seconds.size());
  const double waited = static_cast<double>(std::count_if(
      wait.begin(), wait.end(), [](double w) { return w > 1e-3; }));
  std::printf(
      "# p50 parts: late %.3g s, queue wait %.3g s, exec %.3g s; "
      "%.1f %% of requests waited > 1 ms\n",
      Median(late), Median(wait), Median(exec),
      100.0 * Ratio(waited, static_cast<double>(wait.size())));

  PrintSamples("setup", setups);
  PrintSamples("swap publish", phase.publish_seconds);
  MetricSet m;
  std::set<std::string> measured;
  if (!args.trace) {
    std::vector<double> publishes = phase.publish_seconds;
    if (publishes.empty()) publishes = setups;  // no swaps: set-up publish
    m.Set("setup_s", Median(setups), "s");
    m.Set("p50_s", Quantile(latencies, 0.5), "s");
    m.Set("p99_s", Quantile(latencies, 0.99), "s");
    m.Set("ok_frac", Ratio(verdict.ok, verdict.attempted), "ratio");
    m.Set("slo_ok_frac", Ratio(verdict.slo_ok, verdict.attempted), "ratio");
    m.Set("throughput_qps",
          Ratio(static_cast<double>(verdict.ok), phase.wall_seconds), "1/s");
    m.Set("job_s", phase.wall_seconds, "s");
    m.Set("publish_p50_s", Median(publishes), "s");
    m.Set("rss_peak_mb", phase.rss_mb, "MB");
  } else {
    ZeroPerLayer(m);
    ReportServiceSpans(phase, m, measured);
    std::vector<service::SnapshotTimings> timings = setup_timings;
    timings.insert(timings.end(), phase.timings.begin(), phase.timings.end());
    ReportCatalog(timings,
                  static_cast<double>(phase.stats.metrics.snapshot_publishes),
                  m, measured);
    const Replay replay =
        RunReplay(g, stream, in.open_loop ? std::vector<graph::QueryGraph>{}
                                          : in.queries,
                  true, kReplayBudgetShare * args.seconds);
    if (!ReportReplay(replay, true, m, measured)) ++inconsistent;
    // The phase is the same code in both modes (see above): zero by
    // construction.
    m.Set("bench.trace_overhead_frac", 0.0, "ratio");
    m.Set("bench.late_p99_s", late_p99, "s");
    m.Set("bench.repeat_frac", repeat_frac, "ratio");
    m.Set("bench.swaps", static_cast<double>(phase.publish_seconds.size()),
          "count");
    for (const char* name : {"bench.trace_overhead_frac", "bench.late_p99_s",
                             "bench.repeat_frac", "bench.swaps"}) {
      measured.insert(name);
    }
    PrintMeasured(measured);
  }
  if (inconsistent > 0) {
    std::printf("# FAIL: %zu inconsistent spans\n", inconsistent);
  }
  if (verdict.wrong > 0) {
    std::printf("# FAIL: %zu wrong answers\n", verdict.wrong);
  }
  if (in.open_loop && late_p99 > kMaxLateP99Seconds) {
    std::printf("# INVALID: generator p99 lateness %.3f s exceeds %.3f s\n",
                late_p99, kMaxLateP99Seconds);
    return 3;
  }
  const bool correct = verdict.wrong == 0 && inconsistent == 0;
  PrintResult(correct, verdict.attempted, verdict.attempted - verdict.ok, m);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// mine-weibo.

struct MineJob {
  double setup_s = 0.0;
  double job_s = 0.0;
  fsm::FsmResult result;
  service::ServiceStats stats;
  service::SnapshotTimings timings;
};

std::vector<std::string> SortedCodes(const fsm::FsmResult& result) {
  std::vector<std::string> codes;
  for (const fsm::MinedPattern& p : result.frequent) {
    codes.push_back(fsm::CanonicalCode(p.pattern));
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

fsm::FsmConfig MineConfig() {
  fsm::FsmConfig config;
  config.min_support = kMineSupport;
  config.max_edges = kMineMaxEdges;
  config.num_threads = kMineThreads;
  config.method = fsm::SupportMethod::kPsi;
  return config;
}

std::vector<MineJob> RunMineJobs(const graph::Graph& g, double seconds) {
  std::vector<MineJob> jobs;
  const double start = Now();
  while (jobs.empty() ||
         Now() - start + jobs.back().setup_s + jobs.back().job_s <= seconds) {
    MineJob job;
    ServingStack stack = StartStack(g, kWorkers, kMineQueueDepth);
    job.setup_s = stack.setup_seconds;
    job.timings = stack.timings;
    fsm::FsmConfig config = MineConfig();
    config.service = stack.service.get();
    util::WallTimer timer;
    job.result = fsm::FsmMiner(g, config).Mine();
    job.job_s = timer.Seconds();
    job.stats = stack.service->Stats();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

int RunMine(const Args& args) {
  const graph::Graph g = MakeWeibo();
  std::vector<service::SnapshotTimings> setup_timings;
  std::vector<double> setups;
  MeasureSetups(g, kWorkers, &setups, &setup_timings);
  // As for serving, --trace 1 only adds the replay after the jobs.
  std::vector<MineJob> jobs = RunMineJobs(g, args.seconds);
  const double rss_mb = PeakRssMb();
  MeasureSetups(g, kWorkers, &setups, &setup_timings);

  // Reference: the in-process kPsi miner on the same input.
  util::WallTimer inproc_timer;
  const fsm::FsmResult reference = fsm::FsmMiner(g, MineConfig()).Mine();
  const double inproc_s = inproc_timer.Seconds();
  const std::vector<std::string> reference_codes = SortedCodes(reference);

  size_t attempted = 0, ok = 0, slo_ok = 0, wrong_jobs = 0;
  std::vector<double> job_s, p50, p99;
  double probes = 0.0, batches = 0.0, context_hits = 0.0, rejected = 0.0,
         timed_out = 0.0;
  size_t latency_samples = 0;
  for (const MineJob& job : jobs) {
    std::vector<std::string> codes = SortedCodes(job.result);
    if (args.inject_wrong && &job == &jobs.front() && !codes.empty()) {
      codes.pop_back();
    }
    const auto& metrics = job.stats.metrics;
    attempted += metrics.admitted + metrics.rejected;
    const bool right = job.result.complete && codes == reference_codes;
    if (!right) ++wrong_jobs;
    if (right) {
      ok += metrics.completed;
      if (job.job_s <= kMineJobLimitSeconds) slo_ok += metrics.completed;
    }
    job_s.push_back(job.job_s);
    p50.push_back(metrics.latency.p50);
    p99.push_back(metrics.latency.p99);
    probes += static_cast<double>(metrics.batch_queries);
    batches += static_cast<double>(metrics.batch_submitted);
    context_hits += static_cast<double>(metrics.batch_context_hits);
    rejected += static_cast<double>(metrics.rejected);
    timed_out += static_cast<double>(metrics.timed_out);
    latency_samples += std::min<uint64_t>(
        metrics.latency.count, service::LatencyReservoir::kDefaultCapacity);
  }
  std::printf(
      "# mine-weibo: %zu jobs, %.0f probes, %zu latency samples, %zu frequent "
      "(reference %zu), in-process %.3f s, %zu wrong jobs\n",
      jobs.size(), probes, latency_samples,
      jobs.front().result.frequent.size(), reference.frequent.size(),
      inproc_s, wrong_jobs);

  PrintSamples("setup", setups);
  PrintSamples("job", job_s);
  PrintSamples("job p50", p50);
  PrintSamples("job p99", p99);
  MetricSet m;
  std::set<std::string> measured;
  bool trace_ok = true;
  if (!args.trace) {
    m.Set("setup_s", Median(setups), "s");
    m.Set("p50_s", Median(p50), "s");
    m.Set("p99_s", Median(p99), "s");
    m.Set("ok_frac", Ratio(ok, attempted), "ratio");
    m.Set("slo_ok_frac", Ratio(slo_ok, attempted), "ratio");
    // Every job makes the same probes; the median job sets the rate, so
    // one job stalled by the host does not.
    m.Set("throughput_qps",
          Ratio(probes / static_cast<double>(jobs.size()), Median(job_s)),
          "1/s");
    m.Set("job_s", Median(job_s), "s");
    m.Set("publish_p50_s", Median(setups), "s");
    m.Set("rss_peak_mb", rss_mb, "MB");
  } else {
    ZeroPerLayer(m);
    auto put = [&](const std::string& name, double value, const char* unit) {
      m.Set(name, value, unit);
      measured.insert(name);
    };
    const MineJob& traced = jobs.front();
    put("service.rejected_frac", Ratio(rejected, probes + rejected), "ratio");
    put("service.timeout_frac", Ratio(timed_out, probes), "ratio");
    put("service.batch_context_hit_frac", Ratio(context_hits, probes), "ratio");
    put("service.probes_per_batch", Ratio(probes, batches), "count");
    std::vector<service::SnapshotTimings> timings = setup_timings;
    for (const MineJob& job : jobs) timings.push_back(job.timings);
    ReportCatalog(timings,
                  static_cast<double>(traced.stats.metrics.snapshot_publishes),
                  m, measured);
    put("fsm.candidates",
        static_cast<double>(traced.result.candidates_evaluated), "count");
    put("fsm.frequent", static_cast<double>(traced.result.frequent.size()),
        "count");
    put("fsm.inproc_job_s", inproc_s, "s");
    put("fsm.served_over_inproc", Ratio(Median(job_s), inproc_s), "ratio");
    put("bench.trace_overhead_frac", 0.0, "ratio");  // as for serving

    // Replay the mined patterns' per-pivot probes.
    std::vector<graph::QueryGraph> probes_list;
    for (const fsm::MinedPattern& p : reference.frequent) {
      for (graph::NodeId v = 0; v < p.pattern.num_nodes(); ++v) {
        probes_list.push_back(p.pattern);
        probes_list.back().set_pivot(v);
      }
    }
    std::vector<const graph::QueryGraph*> stream;
    for (const graph::QueryGraph& q : probes_list) stream.push_back(&q);
    const Replay replay =
        RunReplay(g, stream, {}, false, kReplayBudgetShare * args.seconds);
    trace_ok = ReportReplay(replay, false, m, measured);
    PrintMeasured(measured);
  }
  if (wrong_jobs > 0) std::printf("# FAIL: %zu wrong jobs\n", wrong_jobs);
  const bool correct = wrong_jobs == 0 && trace_ok;
  PrintResult(correct, attempted, attempted - ok, m);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-answer") {
      args->inject_wrong = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->workload == "serve-hot" ||
         args->workload == "serve-cold-swap" ||
         args->workload == "mine-weibo";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: psi_perfbench --workload serve-hot|serve-cold-swap|"
                 "mine-weibo --seed N --seconds S --trace 0|1 "
                 "[--inject-wrong-answer]\n");
    return 2;
  }
  PrintHeader(args);
  std::printf("# host probe %.3f ms\n", HostProbeMs());
  return args.workload == "mine-weibo" ? RunMine(args) : RunServe(args);
}

// psi_loadgen — open-loop load generator for the in-process PSI query
// service. Extracts a query workload from the data graph, offers it at a
// target arrival rate (or at saturation), and reports throughput, tail
// latency and shedding behaviour.
//
//   psi_loadgen --generate 100000,400000,8 --workers 8 --requests 400
//   psi_loadgen graph.lg --qps 200 --deadline-ms-max 50 --baseline
//
// Open-loop means arrivals do not wait for completions: when the offered
// rate exceeds service capacity the admission queue fills and requests are
// shed (status=rejected) rather than buffered into unbounded latency.
//
// Every mode runs the same offer loop under the same invariant poller and
// exits 1 unless each admitted request settled exactly once and every
// Stats() snapshot kept the metrics invariants.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/prediction_cache.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "service/service.h"
#include "service/workload.h"
#include "tools/tool_args.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace psi;

void Usage() {
  std::cerr <<
      "Usage: psi_loadgen <graph.lg> [options]\n"
      "       psi_loadgen --generate N,M,L [options]\n"
      "  --requests R          total requests offered (default 200)\n"
      "  --qps Q               open-loop arrival rate; 0 = saturation mode\n"
      "                        (submit-with-backpressure, default)\n"
      "  --workers W           service workers (default 8)\n"
      "  --queue D             admission queue bound (default 256)\n"
      "  --query-size K        nodes per extracted query (default 5)\n"
      "  --unique U            distinct queries to cycle over (default: R —\n"
      "                        all unique; small U exercises the shared\n"
      "                        prediction cache like repeated user traffic)\n"
      "  --deadline-ms-min A   per-request deadline lower bound (default 0)\n"
      "  --deadline-ms-max B   upper bound; 0 disables deadlines (default 0)\n"
      "  --method M            smart | optimistic | pessimistic\n"
      "  --depth D             signature depth (default 2)\n"
      "  --seed S              workload/graph seed (default 42)\n"
      "  --baseline            also run serially (1 worker) and report the\n"
      "                        concurrency speedup\n"
      "  --stress              cancellation/deadline storm: tight random\n"
      "                        deadlines (unless set explicitly), saturation\n"
      "                        submission in waves, each wave shut down with\n"
      "                        requests still in flight, plus a concurrent\n"
      "                        stats poller. Used by the TSan CI job to\n"
      "                        exercise the service's cancel paths end-to-end\n"
      "  --waves N             stress waves, each on a fresh service (default 4)\n"
      "  --chaos               chaos mode: arms the deterministic fault\n"
      "                        injector (--faults or a default cocktail),\n"
      "                        enables every graceful-degradation policy with\n"
      "                        small windows, offers the workload at\n"
      "                        saturation, and verifies the run end-to-end:\n"
      "                        metrics invariants hold in every snapshot,\n"
      "                        degraded-mode entry/exit is observed (default\n"
      "                        cocktail only — a custom --faults schedule\n"
      "                        need not provoke degradation), and the\n"
      "                        process never crashes. Exits nonzero on any\n"
      "                        violation. Requires a PSI_ENABLE_FAULT_INJECTION\n"
      "                        build for faults to actually fire\n"
      "  --faults SPEC         fault schedule for --chaos/--swap-storm, e.g.\n"
      "                        'cache.lookup.miss=every:3,service.worker.stall=prob:0.1@2'\n"
      "                        (see src/util/fault_injection.h for the grammar)\n"
      "  --swap-storm          hot-swap storm: saturation offering against a\n"
      "                        catalog-backed service while a swapper thread\n"
      "                        republishes the served graph as fast as it can\n"
      "                        build, with the catalog.publish fault site\n"
      "                        armed (failed publishes must leave the old\n"
      "                        snapshot serving). Verifies exact settlement,\n"
      "                        that every response reports a published\n"
      "                        snapshot version, zero cross-snapshot cache\n"
      "                        hits (epoch_drops == 0), a prediction cache\n"
      "                        within its entry bound, pins draining to\n"
      "                        zero, and that every retired generation's\n"
      "                        memory is actually released. Exits nonzero on\n"
      "                        any violation\n"
      "  --swaps N             publishes the swapper attempts (default 24)\n"
      "  --batch N             group the workload into BatchRequests of N\n"
      "                        queries and offer them through SubmitBatch\n"
      "                        (one admission unit, one pinned snapshot and\n"
      "                        one shared evaluation context per batch).\n"
      "                        Combines with every mode; with --baseline the\n"
      "                        same workload is re-run through per-request\n"
      "                        Submit for a batching-speedup figure\n"
      "  --search-threads N    work-stealing workers per query evaluation\n"
      "                        (default 1 = sequential)\n";
}

/// How one offer presents the workload to the service.
struct OfferSpec {
  /// Queries per admission unit: 1 offers each through Submit, N > 1 cuts
  /// the workload into BatchRequests of N offered through SubmitBatch.
  size_t unit = 1;
  /// Open-loop arrival rate in requests/s (a unit arrives when its first
  /// query is due); <= 0 offers as fast as admission allows.
  double qps = 0.0;
  /// Re-offer a shed unit after a short pause until it is admitted
  /// (saturation with backpressure). Off, a shed unit stays shed.
  bool retry_shed = false;
  /// Shut the service down just before offering the unit holding this
  /// request index, with earlier units still queued and executing.
  size_t shutdown_at = SIZE_MAX;
};

/// What the service answered, summed over one or more offers.
struct Tally {
  size_t admitted = 0;  // queries admitted
  size_t shed = 0;      // queries shed for good
  size_t settled = 0;   // responses received
  size_t served_degraded = 0;
  size_t batches = 0;
  uint64_t context_hits = 0;
  uint64_t batch_degraded = 0;
  std::map<std::string, uint64_t> outcomes;
  std::set<uint64_t> versions;

  void Settle(const service::QueryResponse& response) {
    ++settled;
    ++outcomes[service::RequestStatusName(response.status)];
    if (response.served_degraded) ++served_degraded;
    versions.insert(response.snapshot_version);
  }
};

/// The one offer loop every mode runs: offers `requests` unit by unit as
/// `spec` says, then waits for every admitted unit and tallies each
/// member's response.
void Offer(service::PsiService& psi_service,
           const std::vector<service::QueryRequest>& requests,
           const OfferSpec& spec, Tally& tally) {
  const size_t unit = std::max<size_t>(1, spec.unit);
  std::vector<std::future<service::QueryResponse>> singles;
  std::vector<std::future<service::BatchResponse>> batches;
  const auto start = std::chrono::steady_clock::now();
  for (size_t begin = 0; begin < requests.size(); begin += unit) {
    const size_t end = std::min(requests.size(), begin + unit);
    if (begin <= spec.shutdown_at && spec.shutdown_at < end) {
      psi_service.Shutdown();
    }
    if (spec.qps > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(begin) / spec.qps)));
    }
    for (;;) {
      bool admitted = false;
      if (unit == 1) {
        auto future = psi_service.Submit(requests[begin]);
        admitted = future.has_value();
        if (admitted) singles.push_back(std::move(*future));
      } else {
        service::BatchRequest batch;
        batch.id = begin / unit + 1;
        batch.queries.assign(requests.begin() + static_cast<ptrdiff_t>(begin),
                             requests.begin() + static_cast<ptrdiff_t>(end));
        auto future = psi_service.SubmitBatch(std::move(batch));
        admitted = future.has_value();
        if (admitted) batches.push_back(std::move(*future));
      }
      if (admitted) {
        tally.admitted += end - begin;
        break;
      }
      if (!spec.retry_shed) {
        tally.shed += end - begin;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (auto& future : singles) tally.Settle(future.get());
  for (auto& future : batches) {
    const service::BatchResponse response = future.get();
    ++tally.batches;
    tally.context_hits += response.context_hits;
    tally.batch_degraded += response.degraded_queries;
    for (const service::QueryResponse& member : response.responses) {
      tally.Settle(member);
    }
  }
}

/// The invariants every Stats() snapshot must keep, mid-run or final.
/// Returns the first one broken, with the numbers, or "" if all hold.
std::string BrokenInvariant(const service::ServiceStats& stats) {
  const service::MetricsSnapshot& m = stats.metrics;
  std::string broken;
  if (m.latency.count > m.Settled() || m.Settled() > m.admitted) {
    broken = "latency.count <= Settled() <= admitted";
  } else if (m.retries > m.admitted) {
    broken = "retries <= admitted";
  } else if (stats.cache.epoch_drops != 0) {
    broken = "epoch_drops == 0 (no cross-snapshot cache hit)";
  } else if (m.cache_entries > core::PredictionCache::kMaxEntries) {
    broken = "cache_entries <= PredictionCache::kMaxEntries";
  } else {
    return broken;
  }
  return broken + " (latency.count=" + std::to_string(m.latency.count) +
         " settled=" + std::to_string(m.Settled()) +
         " admitted=" + std::to_string(m.admitted) +
         " retries=" + std::to_string(m.retries) +
         " epoch_drops=" + std::to_string(stats.cache.epoch_drops) +
         " cache_entries=" + std::to_string(m.cache_entries) + ")";
}

/// The one invariant poller: hammers Stats() on its own thread from
/// construction until Stop(), so the invariants are checked in snapshots
/// taken mid-run, not only at the end.
class InvariantPoller {
 public:
  explicit InvariantPoller(const service::PsiService& psi_service)
      : thread_([this, &psi_service] {
          while (poll_.load(std::memory_order_acquire)) {
            const std::string broken = BrokenInvariant(psi_service.Stats());
            if (!broken.empty()) {
              std::cerr << "invariant violated mid-run: " << broken << "\n";
              held_.store(false, std::memory_order_release);
              return;
            }
            std::this_thread::yield();
          }
        }) {}
  ~InvariantPoller() { Stop(); }
  InvariantPoller(const InvariantPoller&) = delete;
  InvariantPoller& operator=(const InvariantPoller&) = delete;

  /// Stops polling; true iff every snapshot kept the invariants.
  bool Stop() {
    poll_.store(false, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return held_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> poll_{true};
  std::atomic<bool> held_{true};
  std::thread thread_;  // last: starts once the flags exist
};

/// Failed verification checks; the process exits nonzero iff any failed.
struct Checks {
  int failures = 0;
  void operator()(bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "CHECK FAILED: " << what << "\n";
      ++failures;
    }
  }
  int ExitCode() const { return failures == 0 ? 0 : 1; }
};

/// The settlement check every mode ends with, once all its responses are
/// in: the poller saw no broken invariant, the final snapshot keeps them
/// too, and each admitted query settled exactly once — one response each,
/// counted once by the service.
void CheckSettlement(InvariantPoller& poller, const Tally& tally,
                     const service::ServiceStats& stats, Checks& check) {
  check(poller.Stop(), "invariants held in every mid-run snapshot");
  const std::string broken = BrokenInvariant(stats);
  check(broken.empty(), "final snapshot: " + broken);
  check(tally.settled == tally.admitted,
        "one response per admitted request");
  check(stats.metrics.Settled() == tally.admitted,
        "every admitted request settled exactly once");
}

struct RunReport {
  double wall_seconds = 0.0;
  service::ServiceStats stats;
  double Throughput() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(stats.metrics.completed +
                                     stats.metrics.timed_out) /
                     wall_seconds;
  }
};

/// Plain run: one offer against a fresh service, checked for settlement.
RunReport OfferLoad(const graph::Graph& g,
                    const std::vector<service::QueryRequest>& requests,
                    const service::ServiceOptions& options,
                    const OfferSpec& spec, Checks& check) {
  service::PsiService psi_service(g, options);
  InvariantPoller poller(psi_service);
  Tally tally;
  util::WallTimer wall;
  Offer(psi_service, requests, spec, tally);
  RunReport report;
  report.wall_seconds = wall.Seconds();
  report.stats = psi_service.Stats();
  CheckSettlement(poller, tally, report.stats, check);
  if (spec.unit > 1) {
    std::cerr << "Batched: " << tally.batches << " batches of <= " << spec.unit
              << ", context hits " << tally.context_hits << ", degraded "
              << tally.batch_degraded << "\n";
  }
  return report;
}

/// Cancellation storm: each wave offers the workload to a fresh service
/// and shuts it down with roughly the last quarter still to offer, so
/// Shutdown() races queued and executing requests. Returns the exit code.
int StressRun(const graph::Graph& g,
              const std::vector<service::QueryRequest>& requests,
              const service::ServiceOptions& options, OfferSpec spec,
              size_t waves, const service::WorkloadSpec& workload) {
  spec.shutdown_at = requests.size() - requests.size() / 4;
  Checks check;
  std::map<std::string, uint64_t> totals;
  util::WallTimer wall;
  for (size_t wave = 0; wave < waves; ++wave) {
    service::PsiService psi_service(g, options);
    InvariantPoller poller(psi_service);
    Tally tally;
    Offer(psi_service, requests, spec, tally);
    psi_service.Shutdown();
    CheckSettlement(poller, tally, psi_service.Stats(), check);
    totals["rejected"] += tally.shed;
    for (const auto& [status, count] : tally.outcomes) totals[status] += count;
  }
  std::cout << "--- stress (" << waves << " waves, " << requests.size()
            << " requests each, deadlines " << workload.deadline_ms_min << ".."
            << workload.deadline_ms_max << " ms) ---\nwall: " << wall.Seconds()
            << " s\n";
  for (const auto& [status, count] : totals) {
    std::cout << status << ": " << count << "\n";
  }
  return check.ExitCode();
}

/// The default --chaos cocktail: every fault site armed with deterministic
/// schedules dense enough that a 200-request run drives each degradation
/// policy through at least one entry (and usually an exit).
constexpr char kDefaultChaosSpec[] =
    "service.admission.shed=every:7,"
    "service.worker.stall=prob:0.05:7@2,"
    "cache.lookup.miss=every:5,"
    "cache.lookup.poison=every:3,"
    "smart.predict.flip=every:4,"
    "smart.plan.mispredict=every:6,"
    "smart.preempt.expire=every:5,"
    "threadpool.task.start=prob:0.02:11@1";

/// Chaos run: the workload offered against a degradation-enabled service
/// with the injector already armed (shed units stay shed — the service's
/// own retry policy is what is under test), then end-to-end verification.
/// Returns the exit code.
int ChaosRun(const graph::Graph& g,
             const std::vector<service::QueryRequest>& requests,
             service::ServiceOptions options, const OfferSpec& spec,
             bool default_cocktail) {
  // Small windows and cooldowns so the policies visibly cycle within a
  // modest request count.
  options.degradation.enabled = true;
  options.degradation.max_shed_retries = 3;
  options.degradation.retry_backoff_ms = 0.2;
  options.degradation.timeout_window = 16;
  options.degradation.timeout_rate_threshold = 0.4;
  options.degradation.degraded_cooldown = 16;
  options.degradation.poison_window = 8;
  options.degradation.mismatch_rate_threshold = 0.2;
  options.degradation.cache_bypass_cooldown = 16;

  util::FaultInjector& injector = util::FaultInjector::Global();
  service::PsiService psi_service(g, options);
  InvariantPoller poller(psi_service);

  // Offered in rounds. One round normally completes the whole degradation
  // cycle, but on slow machines (TSan CI) most submissions shed and too
  // few requests settle to burn through the cooldowns — so with the
  // default cocktail the same workload is re-offered (bounded) until
  // degraded-mode entry + exit and a shed retry have all been observed.
  constexpr int kMaxRounds = 6;
  Tally tally;
  int rounds = 0;
  util::WallTimer wall;
  for (int round = 0; round < kMaxRounds; ++round) {
    ++rounds;
    Offer(psi_service, requests, spec, tally);
    if (!default_cocktail || injector.TotalFires() == 0) break;
    const service::MetricsSnapshot m = psi_service.Stats().metrics;
    if (m.degraded_entries > 0 && m.degraded_exits > 0 && m.retries > 0) {
      break;
    }
  }
  const double wall_seconds = wall.Seconds();
  const service::ServiceStats stats = psi_service.Stats();
  Checks check;
  CheckSettlement(poller, tally, stats, check);
  const auto site_stats = injector.AllStats();
  const uint64_t fires = injector.TotalFires();
  injector.DisarmAll();

  // --- Report -------------------------------------------------------------
  const auto& m = stats.metrics;
  std::cout << "--- chaos (" << requests.size() << " requests, " << rounds
            << (rounds == 1 ? " round" : " rounds") << ") ---\n"
            << "wall: " << wall_seconds << " s, shed after retries: "
            << tally.shed << ", served degraded: " << tally.served_degraded
            << "\n"
            << m.ToString() << "\n"
            << "gauges: degraded_mode=" << stats.degraded_mode
            << " cache_bypass=" << stats.cache_bypass
            << " faults_injected=" << stats.faults_injected << "\n";
  for (const auto& [site, s] : site_stats) {
    std::cout << "fault " << site << ": hits=" << s.hits
              << " fires=" << s.fires << "\n";
  }
  for (const auto& [status, count] : tally.outcomes) {
    std::cout << status << ": " << count << "\n";
  }

  // --- Verification -------------------------------------------------------
  if (fires > 0 && default_cocktail) {
    // The default cocktail is engineered to drive every degradation policy
    // through at least one cycle; a user-supplied --faults schedule need
    // not, so for those only the settlement checks are binding.
    check(m.degraded_entries > 0, "degraded mode was entered");
    check(m.degraded_exits > 0, "degraded mode was exited");
    check(m.retries > 0, "shed retries were exercised");
  } else if (fires == 0) {
    std::cout << "(no faults fired — PSI_ENABLE_FAULT_INJECTION=OFF build; "
                 "degradation checks skipped)\n";
  }
  if (check.failures == 0) std::cout << "chaos run OK\n";
  return check.ExitCode();
}

/// Hot-swap storm: a swapper thread republishes the served graph while the
/// workload is offered in rounds until the swapper is done. The injector
/// is already armed, by default with catalog.publish, so a fraction of
/// publishes abort after the build — the previous snapshot must keep
/// serving through those. Verifies the catalog contract end to end and
/// returns the exit code.
int SwapStormRun(const graph::Graph& g,
                 const std::vector<service::QueryRequest>& requests,
                 const service::ServiceOptions& options, const OfferSpec& spec,
                 size_t swaps_target) {
  util::FaultInjector& injector = util::FaultInjector::Global();
  service::GraphCatalog catalog;
  service::SnapshotBuildOptions build;
  build.signature_method = options.engine.signature_method;
  build.signature_depth = options.engine.signature_depth;
  build.signature_decay = options.engine.signature_decay;

  // Every generation ever published: version (for the response check) and a
  // weak_ptr (for the memory-release check).
  std::vector<uint64_t> published_versions;
  std::vector<std::weak_ptr<const service::GraphSnapshot>> generations;

  // Seed snapshot; retried because the armed injector may fail the very
  // first publish.
  for (int attempt = 0; attempt < 16 && generations.empty(); ++attempt) {
    auto published =
        catalog.BuildAndPublish(options.default_graph, g.Clone(), build);
    if (published.ok()) {
      published_versions.push_back(published.value()->version());
      generations.emplace_back(published.value());
    }
  }
  if (generations.empty()) {
    std::cerr << "could not publish the seed snapshot\n";
    return 1;
  }

  service::PsiService psi_service(&catalog, options);
  InvariantPoller poller(psi_service);

  std::atomic<bool> swapping{true};
  uint64_t swap_failures = 0;
  std::vector<uint64_t> swapped_versions;
  std::vector<std::weak_ptr<const service::GraphSnapshot>> swapped_generations;
  std::thread swapper([&] {
    for (size_t i = 0; i < swaps_target; ++i) {
      auto published =
          catalog.BuildAndPublish(options.default_graph, g.Clone(), build);
      if (published.ok()) {
        swapped_versions.push_back(published.value()->version());
        swapped_generations.emplace_back(published.value());
      } else {
        ++swap_failures;
      }
    }
    swapping.store(false, std::memory_order_release);
  });

  // Re-offer the workload until the swapper is done so the service is
  // under load for every single swap. Each round drains before the next.
  Tally tally;
  size_t rounds = 0;
  util::WallTimer wall;
  for (;;) {
    // Sampled before the round: when the swapper was already done at round
    // start, this round ran entirely against the final generation, so the
    // run is guaranteed to span at least two versions (given one swap).
    const bool swapper_done = !swapping.load(std::memory_order_acquire);
    ++rounds;
    Offer(psi_service, requests, spec, tally);
    if (swapper_done) break;
  }
  swapper.join();
  published_versions.insert(published_versions.end(), swapped_versions.begin(),
                            swapped_versions.end());
  generations.insert(generations.end(), swapped_generations.begin(),
                     swapped_generations.end());
  const double wall_seconds = wall.Seconds();

  const service::ServiceStats stats = psi_service.Stats();
  Checks check;
  CheckSettlement(poller, tally, stats, check);
  const uint64_t fires = injector.TotalFires();
  const auto publish_site_stats =
      injector.Stats(util::faults::kCatalogPublish);
  injector.DisarmAll();

  // Quiesce and retire the served name so even the final generation should
  // release: after this, nothing in the process holds a snapshot ref.
  psi_service.Shutdown();
  catalog.Retire(options.default_graph);

  // --- Report -------------------------------------------------------------
  const auto& m = stats.metrics;
  std::cout << "--- swap-storm (" << requests.size() << " requests/round, "
            << rounds << (rounds == 1 ? " round, " : " rounds, ")
            << published_versions.size() << " publishes, " << swap_failures
            << " injected publish failures) ---\n"
            << "wall: " << wall_seconds << " s\n"
            << m.ToString() << "\n"
            << "cache lookups: hits=" << stats.cache.hits
            << " misses=" << stats.cache.misses
            << " epoch_drops=" << stats.cache.epoch_drops << "\n"
            << "response versions: " << tally.versions.size()
            << " distinct across " << tally.admitted << " admitted\n";
  for (const auto& [status, count] : tally.outcomes) {
    std::cout << status << ": " << count << "\n";
  }

  // --- Verification -------------------------------------------------------
  check(tally.versions.count(0) == 0,
        "every response reported a snapshot version");
  check(std::all_of(tally.versions.begin(), tally.versions.end(),
                    [&](uint64_t v) {
                      return std::find(published_versions.begin(),
                                       published_versions.end(),
                                       v) != published_versions.end();
                    }),
        "every response version matches a published generation");
  check(m.not_found == 0, "failed publishes never unserved the name");
  check(stats.metrics.snapshot_publishes == published_versions.size(),
        "publish counter matches successful publishes");
  check(stats.metrics.snapshot_swaps == published_versions.size() - 1,
        "swap counter matches republishes");
  check(stats.metrics.snapshot_publish_failures == publish_site_stats.fires,
        "publish-failure counter matches injected aborts");
  if (swapped_versions.size() > 1) {
    check(tally.versions.size() > 1,
          "load actually spanned more than one generation");
  }
  // Memory release: with the service quiesced and the name retired, every
  // generation — including the last — must be gone. Pins drop before the
  // response future is fulfilled, so no grace period is needed.
  const size_t alive = static_cast<size_t>(
      std::count_if(generations.begin(), generations.end(),
                    [](const auto& weak) { return !weak.expired(); }));
  check(alive == 0, "all retired generations released their memory");
  for (const auto& entry : catalog.List()) {
    check(entry.pins == 0, "pin gauge drained to zero");
  }
  if (fires > 0) {
    check(swap_failures > 0, "injected publish failures were observed");
  } else {
    std::cout << "(no faults fired — PSI_ENABLE_FAULT_INJECTION=OFF build; "
                 "publish-failure checks skipped)\n";
  }
  if (check.failures == 0) std::cout << "swap-storm OK\n";
  return check.ExitCode();
}

void PrintReport(const char* title, const RunReport& report) {
  const auto& m = report.stats.metrics;
  std::cout << "--- " << title << " ---\n"
            << "wall: " << report.wall_seconds << " s, throughput: "
            << report.Throughput() << " q/s\n"
            << m.ToString() << "\n"
            << "cache lookups: hits=" << report.stats.cache.hits
            << " misses=" << report.stats.cache.misses << " (hit rate "
            << report.stats.cache.HitRate() << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Strict parsing: anything not on these lists is an error, not a silent
  // no-op. (The old parser swallowed unknown "--x value" pairs, so a
  // mistyped option quietly changed nothing.)
  tools::ArgSpec arg_spec;
  arg_spec.switches = {"--baseline", "--stress", "--chaos", "--swap-storm"};
  arg_spec.options = {"--generate",        "--requests", "--qps",
                      "--workers",         "--queue",    "--query-size",
                      "--unique",          "--deadline-ms-min",
                      "--deadline-ms-max", "--method",   "--depth",
                      "--seed",            "--waves",    "--faults",
                      "--swaps",           "--search-threads",
                      "--batch"};
  arg_spec.max_positional = 1;
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, arg_spec);
  if (!args.ok()) {
    std::cerr << "psi_loadgen: " << args.error << "\n";
    Usage();
    return 2;
  }
  const std::string graph_path =
      args.positional.empty() ? std::string() : args.positional[0];
  auto get = [&](const std::string& key, const std::string& fallback) {
    return args.Get(key, fallback);
  };
  const uint64_t seed = std::strtoull(get("--seed", "42").c_str(), nullptr, 10);

  // --- Graph --------------------------------------------------------------
  graph::Graph g;
  if (args.Has("--generate")) {
    size_t nodes = 0, edges = 0, labels = 8;
    if (std::sscanf(get("--generate", "").c_str(), "%zu,%zu,%zu", &nodes,
                    &edges, &labels) < 2) {
      std::cerr << "bad --generate spec (want N,M[,L])\n";
      return 2;
    }
    util::Rng rng(seed);
    graph::LabelConfig label_config;
    label_config.num_labels = labels;
    util::WallTimer timer;
    g = graph::RelabelWithHomophily(
        graph::ErdosRenyi(nodes, edges, label_config, rng), 0.6, 2, rng);
    std::cerr << "Generated graph in " << timer.Seconds() << " s\n";
  } else if (!graph_path.empty()) {
    auto loaded = graph::LoadLgFile(graph_path);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    g = std::move(loaded).value();
  } else {
    Usage();
    return 2;
  }
  std::cerr << "Graph: " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges, " << g.num_labels() << " labels\n";

  // --- Workload -----------------------------------------------------------
  service::WorkloadSpec spec;
  spec.count = std::strtoull(get("--requests", "200").c_str(), nullptr, 10);
  const size_t unique =
      std::strtoull(get("--unique", "0").c_str(), nullptr, 10);
  const size_t total = spec.count;
  if (unique > 0) spec.count = std::min(spec.count, unique);
  spec.query_size =
      std::strtoull(get("--query-size", "5").c_str(), nullptr, 10);
  spec.deadline_ms_min = std::atof(get("--deadline-ms-min", "0").c_str());
  spec.deadline_ms_max = std::atof(get("--deadline-ms-max", "0").c_str());
  const bool stress = args.Has("--stress");
  if (stress && spec.deadline_ms_max <= 0.0) {
    // Tight deadline mix: some requests finish, many expire mid-search, so
    // the timeout path races the shutdown-cancellation path.
    spec.deadline_ms_min = 0.05;
    spec.deadline_ms_max = 5.0;
  }
  const std::string method = get("--method", "smart");
  if (method == "optimistic") {
    spec.method = service::Method::kOptimistic;
  } else if (method == "pessimistic") {
    spec.method = service::Method::kPessimistic;
  } else if (method != "smart") {
    std::cerr << "unknown method " << method << "\n";
    return 2;
  }
  util::Rng workload_rng(seed ^ 0x10adULL);
  std::vector<service::QueryRequest> requests =
      service::ExtractWorkload(g, spec, workload_rng);
  if (requests.empty()) {
    std::cerr << "could not extract any queries\n";
    return 1;
  }
  // Top up by cycling (covers both --unique cycling and extraction
  // shortfalls).
  const size_t distinct = requests.size();
  for (size_t i = requests.size(); i < total; ++i) {
    service::QueryRequest copy = requests[i % distinct];
    copy.id = i + 1;
    requests.push_back(std::move(copy));
  }
  std::cerr << "Workload: " << requests.size() << " requests over " << distinct
            << " distinct queries, query size " << spec.query_size << "\n";

  // --- Offered load -------------------------------------------------------
  service::ServiceOptions options;
  options.num_workers =
      std::strtoull(get("--workers", "8").c_str(), nullptr, 10);
  options.max_queue_depth =
      std::strtoull(get("--queue", "256").c_str(), nullptr, 10);
  options.engine.signature_depth = static_cast<uint32_t>(
      std::strtoul(get("--depth", "2").c_str(), nullptr, 10));
  if (args.Has("--search-threads")) {
    const std::string raw = get("--search-threads", "1");
    char* end = nullptr;
    options.search_threads = std::strtoull(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0' || options.search_threads == 0) {
      std::cerr << "psi_loadgen: --search-threads wants a positive integer, "
                   "got '" << raw << "'\n";
      return 2;
    }
  }
  const bool chaos = args.Has("--chaos");
  OfferSpec offer;
  offer.qps = std::atof(get("--qps", "0").c_str());
  // Saturation re-offers shed units; the chaos run leaves them shed (the
  // service's own retry policy is under test there), as does the stress
  // run, whose shutdown sheds for good.
  offer.retry_shed = offer.qps <= 0.0 && !chaos && !stress;
  if (args.Has("--batch")) {
    offer.unit = std::strtoull(get("--batch", "0").c_str(), nullptr, 10);
    if (offer.unit == 0) {
      std::cerr << "psi_loadgen: --batch wants a positive batch size\n";
      return 2;
    }
  }

  const bool swap_storm = args.Has("--swap-storm");
  if (chaos || swap_storm) {
    const util::Status armed = util::FaultInjector::Global().ArmFromSpec(
        get("--faults", chaos ? kDefaultChaosSpec : "catalog.publish=every:3"));
    if (!armed.ok()) {
      std::cerr << "bad --faults spec: " << armed.ToString() << "\n";
      return 2;
    }
  }

  if (chaos) {
    return ChaosRun(g, requests, options, offer,
                    /*default_cocktail=*/!args.Has("--faults"));
  }

  if (swap_storm) {
    const size_t swaps = std::max<size_t>(
        1, std::strtoull(get("--swaps", "24").c_str(), nullptr, 10));
    return SwapStormRun(g, requests, options, offer, swaps);
  }

  if (stress) {
    const size_t waves =
        std::max<size_t>(1, std::strtoull(get("--waves", "4").c_str(),
                                          nullptr, 10));
    return StressRun(g, requests, options, offer, waves, spec);
  }

  Checks check;
  const std::string title =
      offer.unit > 1 ? "batched concurrent (batch " +
                           std::to_string(offer.unit) + ")"
                     : std::string("concurrent");
  const RunReport concurrent = OfferLoad(g, requests, options, offer, check);
  PrintReport(title.c_str(), concurrent);

  if (args.Has("--baseline")) {
    // Batched runs compare against per-request Submit on the same workers;
    // per-request runs against a single worker. Both saturate.
    OfferSpec saturate;
    saturate.retry_shed = true;
    service::ServiceOptions baseline_options = options;
    if (offer.unit == 1) baseline_options.num_workers = 1;
    const RunReport baseline =
        OfferLoad(g, requests, baseline_options, saturate, check);
    PrintReport(offer.unit > 1 ? "sequential Submit baseline"
                               : "serial baseline (1 worker)",
                baseline);
    if (baseline.Throughput() > 0.0) {
      if (offer.unit > 1) {
        std::cout << "batching speedup at batch " << offer.unit << ": ";
      } else {
        std::cout << "speedup at " << options.num_workers << " workers: ";
      }
      std::cout << concurrent.Throughput() / baseline.Throughput() << "x\n";
    }
  }
  return check.ExitCode();
}

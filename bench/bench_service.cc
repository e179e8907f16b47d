// Service throughput/latency study (extension; not a paper table): offered
// load through the PsiService admission queue across worker counts, with a
// repeated-traffic mix so the shared prediction cache participates.
// Reports sustained throughput and queue-inclusive p50/p95/p99, plus a
// swap-under-load phase (continuous catalog hot-swaps during a saturated
// run) quantifying what a snapshot swap costs the serving tail. Writes the
// machine-readable BENCH_service.json (override the path with
// PSI_BENCH_JSON).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace psi;

struct Point {
  double wall_seconds = 0.0;
  service::ServiceStats stats;
};

Point OfferSaturated(const graph::Graph& g,
                     const std::vector<service::QueryRequest>& requests,
                     size_t workers) {
  service::ServiceOptions options;
  options.num_workers = workers;
  options.max_queue_depth = 4 * requests.size();  // never shed in this bench
  service::PsiService psi_service(g, options);

  std::vector<std::future<service::QueryResponse>> futures;
  futures.reserve(requests.size());
  util::WallTimer wall;
  for (const service::QueryRequest& request : requests) {
    auto future = psi_service.Submit(request);
    if (future.has_value()) futures.push_back(std::move(*future));
  }
  for (auto& future : futures) future.get();

  Point point;
  point.wall_seconds = wall.Seconds();
  point.stats = psi_service.Stats();
  return point;
}

struct SwapPoint {
  double wall_seconds = 0.0;
  size_t publishes = 0;
  double mean_publish_seconds = 0.0;
  service::ServiceStats stats;
};

/// Same saturated offering, but against a catalog-backed service with a
/// swapper thread republishing the served graph back-to-back for the whole
/// run — every request races a hot swap.
SwapPoint OfferSaturatedWithSwaps(
    const graph::Graph& g, const std::vector<service::QueryRequest>& requests,
    size_t workers) {
  service::GraphCatalog catalog;
  service::SnapshotBuildOptions build;
  auto seed = catalog.BuildAndPublish("bench", g.Clone(), build);
  if (!seed.ok()) {
    std::cerr << "seed publish failed: " << seed.status().ToString() << "\n";
    std::exit(1);
  }
  service::ServiceOptions options;
  options.num_workers = workers;
  options.max_queue_depth = 4 * requests.size();
  options.default_graph = "bench";
  service::PsiService psi_service(&catalog, options);

  std::atomic<bool> stop{false};
  size_t publishes = 0;
  double publish_seconds = 0.0;
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      util::WallTimer publish_timer;
      if (catalog.BuildAndPublish("bench", g.Clone(), build).ok()) {
        publish_seconds += publish_timer.Seconds();
        ++publishes;
      }
    }
  });

  std::vector<std::future<service::QueryResponse>> futures;
  futures.reserve(requests.size());
  util::WallTimer wall;
  for (const service::QueryRequest& request : requests) {
    auto future = psi_service.Submit(request);
    if (future.has_value()) futures.push_back(std::move(*future));
  }
  for (auto& future : futures) future.get();

  SwapPoint point;
  point.wall_seconds = wall.Seconds();
  stop.store(true, std::memory_order_release);
  swapper.join();
  point.publishes = publishes;
  point.mean_publish_seconds =
      publishes == 0 ? 0.0 : publish_seconds / static_cast<double>(publishes);
  point.stats = psi_service.Stats();
  return point;
}

}  // namespace

int main() {
  const int scale = bench::BenchScale();
  const size_t distinct = 10 * scale;
  const size_t total = 4 * distinct;
  const size_t query_size = 5;

  bench::PrintBanner("Service throughput vs workers",
                     "(extension; not a paper table)",
                     std::to_string(total) + " requests over " +
                         std::to_string(distinct) +
                         " distinct queries on YouTube stand-in.");

  const graph::Graph g = bench::MakeStandIn(graph::Dataset::kYouTube);
  std::cout << "YouTube stand-in: " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";

  service::WorkloadSpec spec;
  spec.count = distinct;
  spec.query_size = query_size;
  util::Rng rng(bench::kBenchSeed);
  std::vector<service::QueryRequest> requests =
      service::ExtractWorkload(g, spec, rng);
  if (requests.empty()) {
    std::cerr << "workload extraction failed\n";
    return 1;
  }
  for (size_t i = requests.size(); i < total; ++i) {
    service::QueryRequest copy = requests[i % requests.size()];
    copy.id = i + 1;
    requests.push_back(std::move(copy));
  }

  util::TablePrinter table({"Workers", "Wall", "Throughput", "p50", "p95",
                            "p99", "Cache hit rate", "Speedup vs 1"});
  double baseline_seconds = 0.0;
  std::vector<std::pair<size_t, Point>> sweep;
  for (const size_t workers : {1u, 2u, 4u, 8u}) {
    const Point point = OfferSaturated(g, requests, workers);
    if (workers == 1) baseline_seconds = point.wall_seconds;
    const auto& latency = point.stats.metrics.latency;
    char throughput[32], hit_rate[32], speedup[32];
    std::snprintf(throughput, sizeof(throughput), "%.1f q/s",
                  static_cast<double>(total) /
                      std::max(1e-9, point.wall_seconds));
    std::snprintf(hit_rate, sizeof(hit_rate), "%.0f%%",
                  100.0 * point.stats.cache.HitRate());
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  baseline_seconds / std::max(1e-9, point.wall_seconds));
    table.AddRow({std::to_string(workers),
                  bench::TimeCell(point.wall_seconds, false, 0), throughput,
                  bench::TimeCell(latency.p50, false, 0),
                  bench::TimeCell(latency.p95, false, 0),
                  bench::TimeCell(latency.p99, false, 0), hit_rate, speedup});
    sweep.emplace_back(workers, point);
  }
  table.Print(std::cout);
  std::cout << "\nNotes: requests queue at t=0 (saturated offered load), so "
               "reported\nlatencies include queue wait and fall as workers "
               "drain the queue faster.\nScaling requires as many hardware "
               "threads as workers — on a single-core\nmachine all rows "
               "tie.\n";

  // --- Swap under load ------------------------------------------------------
  const size_t swap_workers = 8;
  const SwapPoint swapped = OfferSaturatedWithSwaps(g, requests, swap_workers);
  const Point& steady = sweep.back().second;  // 8-worker swap-free baseline
  std::cout << "\nSwap under load (" << swap_workers << " workers, "
            << swapped.publishes << " hot swaps during the run, mean publish "
            << swapped.mean_publish_seconds * 1e3 << " ms):\n";
  util::TablePrinter swap_table(
      {"Run", "Wall", "p50", "p95", "p99", "epoch_drops"});
  auto add_swap_row = [&](const char* name, double wall,
                          const service::ServiceStats& stats) {
    swap_table.AddRow({name, bench::TimeCell(wall, false, 0),
                       bench::TimeCell(stats.metrics.latency.p50, false, 0),
                       bench::TimeCell(stats.metrics.latency.p95, false, 0),
                       bench::TimeCell(stats.metrics.latency.p99, false, 0),
                       std::to_string(stats.cache.epoch_drops)});
  };
  add_swap_row("steady", steady.wall_seconds, steady.stats);
  add_swap_row("swap storm", swapped.wall_seconds, swapped.stats);
  swap_table.Print(std::cout);
  if (swapped.stats.cache.epoch_drops != 0) {
    std::cerr << "BENCH CHECK FAILED: cross-snapshot cache hits detected "
                 "(epoch_drops="
              << swapped.stats.cache.epoch_drops << ")\n";
    return 1;
  }

  // --- JSON artifact --------------------------------------------------------
  const char* env = std::getenv("PSI_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_service.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"service\",\n"
      << "  \"graph\": \"youtube_standin\",\n"
      << "  \"num_nodes\": " << g.num_nodes() << ",\n"
      << "  \"num_edges\": " << g.num_edges() << ",\n"
      << "  \"requests\": " << total << ",\n"
      << "  \"distinct_queries\": " << distinct << ",\n"
      << "  \"workers_sweep\": [";
  bool first = true;
  for (const auto& [workers, point] : sweep) {
    const auto& l = point.stats.metrics.latency;
    out << (first ? "" : ",") << "\n    {\"workers\": " << workers
        << ", \"wall_s\": " << point.wall_seconds << ", \"throughput_qps\": "
        << static_cast<double>(total) / std::max(1e-9, point.wall_seconds)
        << ", \"p50_s\": " << l.p50 << ", \"p95_s\": " << l.p95
        << ", \"p99_s\": " << l.p99
        << ", \"cache_hit_rate\": " << point.stats.cache.HitRate() << "}";
    first = false;
  }
  const auto& sl = swapped.stats.metrics.latency;
  out << "\n  ],\n  \"swap_under_load\": {\n"
      << "    \"workers\": " << swap_workers << ",\n"
      << "    \"publishes\": " << swapped.publishes << ",\n"
      << "    \"mean_publish_s\": " << swapped.mean_publish_seconds << ",\n"
      << "    \"wall_s\": " << swapped.wall_seconds << ",\n"
      << "    \"throughput_qps\": "
      << static_cast<double>(total) / std::max(1e-9, swapped.wall_seconds)
      << ",\n"
      << "    \"p50_s\": " << sl.p50 << ",\n"
      << "    \"p95_s\": " << sl.p95 << ",\n"
      << "    \"p99_s\": " << sl.p99 << ",\n"
      << "    \"epoch_drops\": " << swapped.stats.cache.epoch_drops << ",\n"
      << "    \"snapshot_swaps\": " << swapped.stats.metrics.snapshot_swaps
      << "\n  }\n}\n";
  std::cout << "\nwrote " << path << "\n";
  return 0;
}

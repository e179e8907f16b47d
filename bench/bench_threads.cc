// Thread-scaling study (extension; the paper runs SmartPSI single-threaded
// except in Figure 9): signature construction and candidate evaluation
// across engine worker counts on a large Twitter stand-in, plus a
// search-core tail-latency phase (sequential vs work-stealing parallel
// search, DESIGN.md §14) that writes BENCH_search.json (override the path
// with PSI_BENCH_SEARCH_JSON).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "core/pure_drivers.h"
#include "core/smart_psi.h"
#include "signature/builders.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {
using namespace psi;

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(sorted.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct SearchConfigPoint {
  const char* name;
  size_t threads;
  double p50 = 0.0;
  double p99 = 0.0;
  double total_seconds = 0.0;
  uint64_t work_steals = 0;
};
}  // namespace

int main() {
  const int scale = bench::BenchScale();
  const size_t queries = 3 * scale;
  const size_t query_size = 6;

  bench::PrintBanner("Thread scaling: SmartPSI workers",
                     "(extension; not a paper table)",
                     std::to_string(queries) + " queries of size " +
                         std::to_string(query_size) + " on Twitter (8x).");

  const graph::Graph g = bench::MakeStandIn(graph::Dataset::kTwitter, 8.0);
  std::cout << "Twitter stand-in: " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";

  const auto workload = bench::MakeWorkload(g, query_size, queries);

  util::TablePrinter table({"Threads", "Sig build", "Train (serial)",
                            "Eval (parallel)", "Query total",
                            "Speedup vs 1"});
  double baseline_seconds = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    core::SmartPsiConfig config;
    config.num_threads = threads;
    core::SmartPsiEngine engine(g, config);

    util::WallTimer timer;
    double train_seconds = 0.0;
    double eval_seconds = 0.0;
    for (const auto& q : workload) {
      const auto result = engine.Evaluate(q);
      train_seconds += result.train_seconds;
      eval_seconds += result.eval_seconds;
    }
    const double seconds = timer.Seconds();
    if (threads == 1) baseline_seconds = seconds;

    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  baseline_seconds / std::max(1e-9, seconds));
    table.AddRow({std::to_string(threads),
                  bench::TimeCell(engine.signature_build_seconds(), false, 0),
                  bench::TimeCell(train_seconds, false, 0),
                  bench::TimeCell(eval_seconds, false, 0),
                  bench::TimeCell(seconds, false, 0), speedup});
  }
  table.Print(std::cout);
  std::cout << "\nNotes: only the post-training candidate evaluation and the "
               "signature\nbuild parallelize; training is serial (as in the "
               "paper), bounding the\nachievable speedup by Amdahl's law. Scaling requires as many\nhardware threads as workers — on a single-core machine all rows tie.\n";

  // --- Search-core tail latency (DESIGN.md §14) ---------------------------
  // Per-query latency distribution of the pure pessimistic driver, searched
  // sequentially and on work-stealing parallel search; answers are
  // bit-identical across both rows.
  const size_t tail_queries = 12 * scale;
  const auto tail_workload = bench::MakeWorkload(g, query_size, tail_queries);
  const auto sigs =
      signature::BuildMatrixSignatures(g, 2, g.num_labels());

  std::vector<SearchConfigPoint> points = {
      {"sequential", 1},
      {"parallel", 4},
  };
  std::cout << "\n";
  bench::PrintBanner("Search-core tail latency: pure pessimistic driver",
                     "(extension; DESIGN.md §14)",
                     std::to_string(tail_queries) + " queries of size " +
                         std::to_string(query_size) +
                         " per configuration, same Twitter stand-in.");
  util::TablePrinter tail_table({"Config", "p50", "p99", "Total", "Steals"});
  for (SearchConfigPoint& point : points) {
    core::PureDriverOptions pure;
    pure.strategy = core::PureStrategy::kPessimistic;
    pure.search_threads = point.threads;
    match::SearchStats stats;
    std::vector<double> latencies;
    latencies.reserve(tail_workload.size());
    util::WallTimer timer;
    for (const auto& q : tail_workload) {
      util::WallTimer query_timer;
      const auto result = core::EvaluatePure(g, sigs, q, pure);
      latencies.push_back(query_timer.Seconds());
      stats += result.stats;
    }
    point.total_seconds = timer.Seconds();
    std::sort(latencies.begin(), latencies.end());
    point.p50 = Percentile(latencies, 0.50);
    point.p99 = Percentile(latencies, 0.99);
    point.work_steals = stats.work_steals;
    tail_table.AddRow({point.name, bench::TimeCell(point.p50, false, 0),
                       bench::TimeCell(point.p99, false, 0),
                       bench::TimeCell(point.total_seconds, false, 0),
                       std::to_string(point.work_steals)});
  }
  tail_table.Print(std::cout);
  std::cout << "\nNotes: the parallel row needs as many hardware threads "
               "as workers to show a\nwin; answers are bit-identical across "
               "both rows either way.\n";

  // --- JSON artifact ------------------------------------------------------
  const char* env = std::getenv("PSI_BENCH_SEARCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_search.json";
  {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"search\",\n"
        << "  \"graph\": \"twitter_standin\",\n"
        << "  \"num_nodes\": " << g.num_nodes() << ",\n"
        << "  \"num_edges\": " << g.num_edges() << ",\n"
        << "  \"queries\": " << tail_queries << ",\n"
        << "  \"query_size\": " << query_size << ",\n"
        << "  \"configs\": [";
    bool first = true;
    for (const SearchConfigPoint& point : points) {
      out << (first ? "" : ",") << "\n    {\"config\": \"" << point.name
          << "\", \"search_threads\": " << point.threads
          << ", \"p50_s\": " << point.p50 << ", \"p99_s\": " << point.p99
          << ", \"total_s\": " << point.total_seconds
          << ", \"work_steals\": " << point.work_steals << "}";
      first = false;
    }
    out << "\n  ]\n}\n";
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

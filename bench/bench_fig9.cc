// Figure 9 reproduction: SmartPSI (2 worker threads) vs the two-threaded
// racing baseline (§4.1) on YouTube (a) and Twitter (b), query sizes 4-8.
//
// The baseline spawns two fresh threads per candidate node (optimist vs
// pessimist race), reproducing the thread-churn overhead the paper
// criticizes; SmartPSI uses two workers to evaluate two candidates in
// parallel. Budget-exceeding cells are censored.

#include <iostream>

#include "bench/bench_util.h"
#include "core/smart_psi.h"
#include "core/two_threaded.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {
using namespace psi;
}  // namespace

int main() {
  const int scale = bench::BenchScale();
  const size_t queries_per_size = 2 * scale;
  const double budget = 3.0 * scale;

  bench::PrintBanner("Figure 9: SmartPSI (2 threads) vs two-threaded baseline",
                     "Abdelhamid et al., EDBT'19, Figure 9 (a,b)",
                     std::to_string(queries_per_size) +
                         " queries per size; per-cell budget " +
                         std::to_string(budget) + "s.");

  for (const graph::Dataset dataset :
       {graph::Dataset::kYouTube, graph::Dataset::kTwitter}) {
    const graph::Graph g = bench::MakeStandIn(dataset);

    core::SmartPsiConfig config;
    config.num_threads = 2;
    core::SmartPsiEngine smart(g, config);
    core::TwoThreadedBaseline baseline(g, smart.graph_signatures());

    util::TablePrinter table({"Size", "Two-threaded", "SmartPSI(2thr)"});
    for (const size_t size : {4u, 5u, 6u, 7u, 8u}) {
      const auto workload = bench::MakeWorkload(g, size, queries_per_size);
      std::vector<std::string> row{std::to_string(size)};

      {
        util::WallTimer timer;
        bool censored = false;
        const util::Deadline deadline = util::Deadline::After(budget);
        for (const auto& q : workload) {
          core::TwoThreadedBaseline::Options options;
          options.deadline = deadline;
          censored |= !baseline.Evaluate(q, options).complete;
          if (deadline.Expired()) break;
        }
        row.push_back(bench::TimeCell(timer.Seconds(), censored, budget));
      }
      {
        util::WallTimer timer;
        bool censored = false;
        const util::Deadline deadline = util::Deadline::After(budget);
        for (const auto& q : workload) {
          censored |= !smart.Evaluate(q, deadline).complete;
          if (deadline.Expired()) break;
        }
        row.push_back(bench::TimeCell(timer.Seconds(), censored, budget));
      }
      table.AddRow(row);
    }
    std::cout << "\n--- Figure 9: " << graph::GetDatasetSpec(dataset).name
              << " (" << g.num_nodes() << " nodes, " << g.num_edges()
              << " edges) ---\n";
    table.Print(std::cout);
  }
  std::cout << "\nExpected shape (paper): the baseline can win on the "
               "smallest queries\n(no training overhead), then loses and "
               "times out as query size grows.\n";
  return 0;
}

// Figure 11 reproduction: prediction accuracy of the node-type classifier
// (Model α) across datasets and query sizes.
//
// Accuracy is measured exactly as the paper defines it: the model's
// prediction for each non-training candidate is compared against the true
// node type established by the (exact) evaluation itself. Paper result:
// > 90% on every dataset, stable across query sizes.

#include <iostream>

#include "bench/bench_util.h"
#include "core/smart_psi.h"
#include "util/table_printer.h"

namespace {
using namespace psi;
}  // namespace

int main() {
  const int scale = bench::BenchScale();
  const size_t queries_per_size = 3 * scale;

  bench::PrintBanner("Figure 11: Model α prediction accuracy",
                     "Abdelhamid et al., EDBT'19, Figure 11",
                     std::to_string(queries_per_size) +
                         " queries per size; accuracy aggregated over all "
                         "predicted candidates.");

  const std::vector<graph::Dataset> datasets = {
      graph::Dataset::kYeast, graph::Dataset::kCora, graph::Dataset::kHuman,
      graph::Dataset::kYouTube, graph::Dataset::kTwitter};
  const std::vector<size_t> sizes = {4, 6, 8, 10};

  util::TablePrinter table({"Dataset", "size 4", "size 6", "size 8",
                            "size 10", "overall"});
  for (const graph::Dataset dataset : datasets) {
    const graph::Graph g = bench::MakeStandIn(dataset);
    core::SmartPsiConfig config;
    config.min_candidates_for_ml = 8;  // keep the ML path on small graphs
    // At stand-in scale, 10% of a few hundred candidates is a tiny training
    // set, so the ceiling is raised; the training budget
    // (SmartPsiEngine::kTrainingShare) still stops most samples below it.
    config.train_fraction = 0.25;
    config.forest_trees = 32;
    core::SmartPsiEngine engine(g, config);

    std::vector<std::string> row{graph::GetDatasetSpec(dataset).name};
    size_t total_predictions = 0;
    size_t total_correct = 0;
    for (const size_t size : sizes) {
      size_t predictions = 0;
      size_t correct = 0;
      for (const auto& q :
           bench::MakeWorkload(g, size, queries_per_size)) {
        const auto result = engine.Evaluate(q);
        predictions += result.alpha_predictions;
        correct += result.alpha_correct;
      }
      total_predictions += predictions;
      total_correct += correct;
      char cell[32];
      if (predictions == 0) {
        std::snprintf(cell, sizeof(cell), "n/a");
      } else {
        std::snprintf(cell, sizeof(cell), "%.1f%%",
                      100.0 * static_cast<double>(correct) /
                          static_cast<double>(predictions));
      }
      row.push_back(cell);
    }
    char overall[32];
    std::snprintf(overall, sizeof(overall), "%.1f%%",
                  total_predictions == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(total_correct) /
                            static_cast<double>(total_predictions));
    row.push_back(overall);
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (paper): accuracy above ~90% on every "
               "dataset, with\nonly small variation across query sizes.\n";
  return 0;
}

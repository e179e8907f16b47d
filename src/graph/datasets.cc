#include "graph/datasets.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "graph/generators.h"
#include "util/random.h"

namespace psi::graph {

namespace {

// Published counts from paper Table 3. Degree exponent 0 = Erdős–Rényi
// (PPI/citation graphs have light-tailed degrees at this scale); otherwise
// Chung–Lu power law with the given exponent (social graphs).
const std::array<DatasetSpec, 6> kSpecs = {{
    {"Yeast", 3112, 12519, 71, 0.9, 0.0},
    {"Cora", 2708, 5429, 7, 0.5, 0.0},
    {"Human", 4674, 86282, 44, 0.9, 0.0},
    {"YouTube", 5101938, 42546295, 25, 1.0, 2.2},
    {"Twitter", 11316811, 85331846, 25, 1.0, 2.1},
    {"Weibo", 1655678, 369438063, 55, 1.0, 2.0},
}};

// Label homophily per dataset family (adopt-a-neighbor's-label probability;
// see RelabelWithHomophily). Citation areas are strongly homophilous,
// protein functions and user locations moderately so; the paper's Twitter
// labels were assigned synthetically and get the weakest correlation.
const std::array<double, 6> kHomophily = {0.5, 0.8, 0.6, 0.5, 0.3, 0.6};

size_t SpecIndex(Dataset d) { return static_cast<size_t>(d); }

}  // namespace

const DatasetSpec& GetDatasetSpec(Dataset d) { return kSpecs[SpecIndex(d)]; }

std::vector<Dataset> AllDatasets() {
  return {Dataset::kYeast,   Dataset::kCora,    Dataset::kHuman,
          Dataset::kYouTube, Dataset::kTwitter, Dataset::kWeibo};
}

DatasetSize ScaledDatasetSize(Dataset d, double scale) {
  const DatasetSpec& spec = GetDatasetSpec(d);
  const size_t nodes = std::max<size_t>(
      16, static_cast<size_t>(static_cast<double>(spec.nodes) * scale));
  size_t edges = std::max<size_t>(
      nodes, static_cast<size_t>(static_cast<double>(spec.edges) * scale));
  // Cap density at half the complete graph so Erdős–Rényi always terminates.
  const double max_edges =
      static_cast<double>(nodes) * static_cast<double>(nodes - 1) / 4.0;
  edges = std::min(edges, static_cast<size_t>(max_edges));
  return {nodes, edges};
}

Graph MakeDataset(Dataset d, double scale, uint64_t seed) {
  assert(scale > 0.0 && scale <= 1.0);
  const DatasetSpec& spec = GetDatasetSpec(d);
  const auto [nodes, edges] = ScaledDatasetSize(d, scale);

  LabelConfig labels;
  labels.num_labels = spec.labels;
  labels.zipf_exponent = spec.label_skew;

  util::Rng rng(seed ^ (0xD5ULL + SpecIndex(d)));
  Graph structure =
      spec.degree_exponent == 0.0
          ? ErdosRenyi(nodes, edges, labels, rng)
          : ChungLuPowerLaw(nodes, edges, spec.degree_exponent, labels, rng);
  return RelabelWithHomophily(structure, kHomophily[SpecIndex(d)],
                              /*sweeps=*/2, rng);
}

}  // namespace psi::graph

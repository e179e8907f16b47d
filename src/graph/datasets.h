#ifndef SMARTPSI_GRAPH_DATASETS_H_
#define SMARTPSI_GRAPH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace psi::graph {

/// Synthetic stand-ins for the six real datasets of paper Table 3.
///
/// The originals (protein-interaction networks, citation and social graphs)
/// are not available offline, so each stand-in is generated to the published
/// node / edge / label counts with a degree distribution and label skew
/// matching the dataset family:
///   * Yeast / Human — PPI networks: Erdős–Rényi-ish with mild skew
///     (Human is ~7x denser, reproducing its hardness in Table 2 / Fig 7c).
///   * Cora — sparse citation graph, only 7 labels (low label selectivity).
///   * YouTube / Twitter / Weibo — heavy-tailed social graphs (Chung–Lu
///     power law; Weibo keeps its extreme density, avg degree ~446).
///
/// PSI/subgraph-iso difficulty is governed by size, density, degree skew and
/// label selectivity; the stand-ins match all four, so the relative shapes of
/// the paper's experiments are preserved (see DESIGN.md §3).
enum class Dataset {
  kYeast,
  kCora,
  kHuman,
  kYouTube,
  kTwitter,
  kWeibo,
};

/// Published characteristics (Table 3) plus the generator family we use.
struct DatasetSpec {
  std::string name;
  size_t nodes;
  size_t edges;
  size_t labels;
  /// Zipf exponent for node-label skew.
  double label_skew;
  /// Power-law exponent for Chung–Lu datasets; 0 selects Erdős–Rényi.
  double degree_exponent;
};

/// Full-size published spec for `d`.
const DatasetSpec& GetDatasetSpec(Dataset d);

/// All six datasets in paper order.
std::vector<Dataset> AllDatasets();

/// Node and edge counts of the stand-in MakeDataset(d, scale, ·) generates,
/// known before anything is built.
struct DatasetSize {
  size_t nodes;
  size_t edges;
};
DatasetSize ScaledDatasetSize(Dataset d, double scale);

/// Generates the stand-in for `d`, scaled by `scale` in (0, 1]: node and
/// edge counts are multiplied by `scale` (label count is kept). Pass 1.0 for
/// the published size. Deterministic in `seed`.
Graph MakeDataset(Dataset d, double scale, uint64_t seed);

/// Convenience: full-size stand-in.
inline Graph MakeDataset(Dataset d, uint64_t seed) {
  return MakeDataset(d, 1.0, seed);
}

}  // namespace psi::graph

#endif  // SMARTPSI_GRAPH_DATASETS_H_

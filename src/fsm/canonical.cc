#include "fsm/canonical.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace psi::fsm {

namespace {

/// Encodes the pattern under one node ordering into `out`: the label
/// sequence followed by the upper-triangle adjacency (edge label + 1,
/// 0 = no edge). Fixed-width tokens, so lexicographic comparison of the
/// vectors is a total order over encodings. Reuses `out`'s capacity —
/// canonicalization is the candidate-generation hot path of the FSM miner.
void EncodeUnder(const graph::QueryGraph& p,
                 const std::vector<graph::NodeId>& perm,
                 std::vector<uint32_t>& out) {
  out.clear();
  for (const graph::NodeId v : perm) out.push_back(p.label(v));
  for (size_t i = 0; i < perm.size(); ++i) {
    for (size_t j = i + 1; j < perm.size(); ++j) {
      out.push_back(p.HasEdge(perm[i], perm[j])
                        ? p.EdgeLabel(perm[i], perm[j]) + 1
                        : 0);
    }
  }
}

}  // namespace

std::string CanonicalCode(const graph::QueryGraph& pattern) {
  const size_t n = pattern.num_nodes();
  assert(n <= 8 && "canonicalization is factorial; keep patterns small");
  if (n == 0) return "";

  std::vector<graph::NodeId> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<graph::NodeId>(i);
  // Only permutations with a non-decreasing label sequence can be minimal
  // (labels come first in the encoding), so sort by label once and permute
  // within label groups via std::next_permutation on the full sequence,
  // skipping encodings whose label prefix is already non-minimal.
  std::sort(perm.begin(), perm.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return pattern.label(a) != pattern.label(b)
                         ? pattern.label(a) < pattern.label(b)
                         : a < b;
            });
  std::vector<graph::Label> minimal_labels(n);
  for (size_t i = 0; i < n; ++i) minimal_labels[i] = pattern.label(perm[i]);

  std::vector<uint32_t> best;
  std::vector<uint32_t> candidate;
  std::vector<graph::NodeId> current = perm;
  std::sort(current.begin(), current.end());
  do {
    bool label_minimal = true;
    for (size_t i = 0; i < n; ++i) {
      if (pattern.label(current[i]) != minimal_labels[i]) {
        label_minimal = false;
        break;
      }
    }
    if (!label_minimal) continue;
    EncodeUnder(pattern, current, candidate);
    if (best.empty() || candidate < best) best.swap(candidate);
  } while (std::next_permutation(current.begin(), current.end()));

  // Pack the fixed-width tokens into the string key byte-for-byte.
  return std::string(reinterpret_cast<const char*>(best.data()),
                     best.size() * sizeof(uint32_t));
}

}  // namespace psi::fsm

#ifndef SMARTPSI_GRAPH_EQUIVALENCE_H_
#define SMARTPSI_GRAPH_EQUIVALENCE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace psi::graph {

/// Syntactic-equivalence partition of a graph's nodes, after BoostIso
/// (Ren & Wang, PVLDB'15): two nodes are *twins* when swapping them is a
/// graph automorphism, so any embedding through one yields an embedding
/// through the other. For PSI this means the whole class shares one
/// validity answer — evaluate a representative, copy the result.
///
/// Detected twin kinds (both require equal node labels):
///  * open twins: identical labeled neighbor lists (u and v not adjacent),
///  * closed twins: u ~ v with identical closed neighborhoods, restricted
///    to nodes whose incident edge labels are all equal (the common
///    unlabeled-edge case) so the label function stays symmetric.
///
/// Power-law graphs are full of twins (degree-1 leaves hanging off hubs),
/// which is exactly where PSI workloads spend candidate evaluations.
struct EquivalenceClasses {
  /// class_of[node] = dense class id.
  std::vector<uint32_t> class_of;
  /// representative[class id] = smallest node id in the class.
  std::vector<NodeId> representative;

  size_t num_classes() const { return representative.size(); }
};

EquivalenceClasses ComputeSyntacticEquivalence(const Graph& g);

}  // namespace psi::graph

#endif  // SMARTPSI_GRAPH_EQUIVALENCE_H_

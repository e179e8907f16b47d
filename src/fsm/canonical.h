#ifndef SMARTPSI_FSM_CANONICAL_H_
#define SMARTPSI_FSM_CANONICAL_H_

#include <string>

#include "graph/query_graph.h"

namespace psi::fsm {

/// Canonical string code of a small pattern graph: the lexicographically
/// smallest encoding of (node labels, upper-triangle adjacency with edge
/// labels) over all node permutations. Two patterns have equal codes iff
/// they are isomorphic — the dedup key of the FSM candidate generator.
///
/// Brute force over permutations, pruned by label order; fine for FSM-sized
/// patterns (≤ 8 nodes — asserts above that).
std::string CanonicalCode(const graph::QueryGraph& pattern);

}  // namespace psi::fsm

#endif  // SMARTPSI_FSM_CANONICAL_H_

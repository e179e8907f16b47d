#ifndef SMARTPSI_SIGNATURE_BUILDERS_H_
#define SMARTPSI_SIGNATURE_BUILDERS_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "signature/signature_matrix.h"
#include "util/thread_pool.h"

namespace psi::signature {

/// Default propagation depth D used throughout the paper's examples.
inline constexpr uint32_t kDefaultDepth = 2;

/// Exploration-based construction (paper §3.1 "Signature Computation"):
/// one bounded BFS per node; the weight of label l is
/// Σ_d 2^-d · C_u(l, d) with C_u(l, d) = #nodes labeled l at shortest
/// distance d <= depth. Complexity O(N·L·d^D).
///
/// `num_labels` must be >= the graph's num_labels(); pass a larger value to
/// build signatures in a shared label space (e.g., matching a data graph
/// whose label alphabet is bigger). `pool` parallelizes across nodes.
SignatureMatrix BuildExplorationSignatures(
    const graph::Graph& g, uint32_t depth, size_t num_labels,
    util::ThreadPool* pool = nullptr,
    float decay = SignatureMatrix::kDefaultDecay);

/// Matrix-based construction (the paper's optimization):
///   NS^0(n)  = one-hot(label(n))
///   NS^i(n)  = NS^{i-1}(n) + ½ · Σ_{m ∈ N(n)} NS^{i-1}(m)
/// Complexity O(N·d + N·L·d·(D-1)): the first round adds one weight per
/// neighbour, later rounds whole rows. Bit-identical to running the dense
/// recurrence for every round. Weights count depth-bounded walks rather than
/// shortest paths, so they dominate the exploration weights; Proposition 3.2
/// pruning remains sound because subgraph embeddings map walks to walks.
SignatureMatrix BuildMatrixSignatures(
    const graph::Graph& g, uint32_t depth, size_t num_labels,
    util::ThreadPool* pool = nullptr,
    float decay = SignatureMatrix::kDefaultDecay);

/// Query-graph versions of the two builders (same math over the small
/// adjacency structure). The query must be built in the same label space as
/// the data graph (`num_labels` columns).
SignatureMatrix BuildExplorationSignatures(
    const graph::QueryGraph& q, uint32_t depth, size_t num_labels,
    float decay = SignatureMatrix::kDefaultDecay);

SignatureMatrix BuildMatrixSignatures(
    const graph::QueryGraph& q, uint32_t depth, size_t num_labels,
    float decay = SignatureMatrix::kDefaultDecay);

/// Dispatches on `method`.
SignatureMatrix BuildSignatures(const graph::Graph& g, Method method,
                                uint32_t depth, size_t num_labels,
                                util::ThreadPool* pool = nullptr,
                                float decay = SignatureMatrix::kDefaultDecay);

SignatureMatrix BuildSignatures(const graph::QueryGraph& q, Method method,
                                uint32_t depth, size_t num_labels,
                                float decay = SignatureMatrix::kDefaultDecay);

}  // namespace psi::signature

#endif  // SMARTPSI_SIGNATURE_BUILDERS_H_

#include "signature/builders.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "graph/algorithms.h"
#include "signature/kernels.h"

namespace psi::signature {

namespace {

/// decay^d weights for d = 0..depth (paper: decay = 1/2, i.e. 2^-d).
std::vector<float> DepthWeights(uint32_t depth, float decay) {
  std::vector<float> weights(depth + 1);
  float w = 1.0f;
  for (uint32_t d = 0; d <= depth; ++d) {
    weights[d] = w;
    w *= decay;
  }
  return weights;
}

}  // namespace

SignatureMatrix BuildExplorationSignatures(const graph::Graph& g,
                                           uint32_t depth, size_t num_labels,
                                           util::ThreadPool* pool,
                                           float decay) {
  assert(num_labels >= g.num_labels());
  SignatureMatrix ns(g.num_nodes(), num_labels, Method::kExploration, depth,
                     decay);
  const std::vector<float> weights = DepthWeights(depth, decay);

  auto build_range = [&](size_t begin, size_t end) {
    graph::BoundedBfs bfs(g.num_nodes());
    for (size_t u = begin; u < end; ++u) {
      auto row = ns.row(u);
      bfs.Run(g, static_cast<graph::NodeId>(u), depth,
              [&](graph::NodeId v, uint32_t d) {
                row[g.label(v)] += weights[d];
              });
    }
  };

  if (pool != nullptr && g.num_nodes() > 1024) {
    pool->ParallelFor(g.num_nodes(), build_range);
  } else {
    build_range(0, g.num_nodes());
  }
  return ns;
}

SignatureMatrix BuildMatrixSignatures(const graph::Graph& g, uint32_t depth,
                                      size_t num_labels,
                                      util::ThreadPool* pool, float decay) {
  assert(num_labels >= g.num_labels());
  const size_t n = g.num_nodes();
  auto for_all_rows = [&](const auto& range) {
    if (pool != nullptr && n > 1024) {
      pool->ParallelFor(n, range);
    } else {
      range(0, n);
    }
  };
  SignatureMatrix current(n, num_labels, Method::kMatrix, depth, decay);
  if (depth == 0 || n == 0) {
    for (graph::NodeId u = 0; u < n; ++u) current.at(u, g.label(u)) = 1.0f;
    return current;
  }

  // Double buffering; the result ends in `current`'s first allocation at
  // even depths. Returning the buffer allocated first and freeing the later
  // one keeps repeated publishes from leaving a freed hole below each new
  // snapshot (that order flipped read +1.4 MB peak RSS over 30 publishes).
  SignatureMatrix next(n, num_labels, Method::kMatrix, depth, decay);
  // NS^1 straight from the adjacency. NS^0 rows are one-hot, so the dense
  // recurrence adds decay * 0 = +0 (a no-op) to every label but each
  // neighbour's own; what is left is 1 on the node's label plus one `decay`
  // per neighbour, added in adjacency order as the dense loop adds them.
  // Bit-identical, and O(E) instead of O(E * L).
  for_all_rows([&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const auto row = next.row(u);
      row[g.label(static_cast<graph::NodeId>(u))] = 1.0f;
      for (const graph::NodeId v :
           g.neighbors(static_cast<graph::NodeId>(u))) {
        row[g.label(v)] += decay;
      }
    }
  });
  current.SwapData(next);
  for (uint32_t iter = 1; iter < depth; ++iter) {
    const float* prev = current.row(0).data();
    for_all_rows([&](size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        internal::PropagateRow(
            prev, num_labels, static_cast<graph::NodeId>(u),
            g.neighbors(static_cast<graph::NodeId>(u)), decay,
            next.row(u).data());
      }
    });
    current.SwapData(next);
  }
  return current;
}

SignatureMatrix BuildExplorationSignatures(const graph::QueryGraph& q,
                                           uint32_t depth, size_t num_labels,
                                           float decay) {
  assert(num_labels >= q.max_label_plus_one());
  SignatureMatrix ns(q.num_nodes(), num_labels, Method::kExploration, depth,
                     decay);
  const std::vector<float> weights = DepthWeights(depth, decay);

  // Bitset BFS per node (queries have at most 64 nodes).
  for (size_t start = 0; start < q.num_nodes(); ++start) {
    auto row = ns.row(start);
    uint64_t visited = 1ULL << start;
    uint64_t frontier = 1ULL << start;
    for (uint32_t d = 0; d <= depth && frontier != 0; ++d) {
      uint64_t next_frontier = 0;
      for (size_t v = 0; v < q.num_nodes(); ++v) {
        if ((frontier >> v) & 1ULL) {
          row[q.label(static_cast<graph::NodeId>(v))] += weights[d];
          next_frontier |= q.neighbor_bits(static_cast<graph::NodeId>(v));
        }
      }
      frontier = next_frontier & ~visited;
      visited |= next_frontier;
    }
  }
  return ns;
}

SignatureMatrix BuildMatrixSignatures(const graph::QueryGraph& q,
                                      uint32_t depth, size_t num_labels,
                                      float decay) {
  assert(num_labels >= q.max_label_plus_one());
  SignatureMatrix current(q.num_nodes(), num_labels, Method::kMatrix, depth,
                          decay);
  for (size_t v = 0; v < q.num_nodes(); ++v) {
    current.at(v, q.label(static_cast<graph::NodeId>(v))) = 1.0f;
  }
  SignatureMatrix next(q.num_nodes(), num_labels, Method::kMatrix, depth,
                       decay);
  for (uint32_t iter = 0; iter < depth; ++iter) {
    for (size_t v = 0; v < q.num_nodes(); ++v) {
      const auto current_row = current.row(v);
      auto next_row = next.row(v);
      for (size_t l = 0; l < num_labels; ++l) next_row[l] = current_row[l];
      for (const auto& [nbr, edge_label] :
           q.neighbors(static_cast<graph::NodeId>(v))) {
        (void)edge_label;
        const auto nbr_row = current.row(nbr);
        for (size_t l = 0; l < num_labels; ++l) {
          next_row[l] += decay * nbr_row[l];
        }
      }
    }
    current.SwapData(next);
  }
  return current;
}

SignatureMatrix BuildSignatures(const graph::Graph& g, Method method,
                                uint32_t depth, size_t num_labels,
                                util::ThreadPool* pool, float decay) {
  return method == Method::kExploration
             ? BuildExplorationSignatures(g, depth, num_labels, pool, decay)
             : BuildMatrixSignatures(g, depth, num_labels, pool, decay);
}

SignatureMatrix BuildSignatures(const graph::QueryGraph& q, Method method,
                                uint32_t depth, size_t num_labels,
                                float decay) {
  return method == Method::kExploration
             ? BuildExplorationSignatures(q, depth, num_labels, decay)
             : BuildMatrixSignatures(q, depth, num_labels, decay);
}

}  // namespace psi::signature

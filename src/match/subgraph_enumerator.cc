#include "match/subgraph_enumerator.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace psi::match {

namespace {

struct BackwardNeighbor {
  graph::NodeId query_node;
  graph::Label edge_label;
};

/// Precomputes, for each plan level, the query neighbors mapped earlier.
std::vector<std::vector<BackwardNeighbor>> ComputeBackward(
    const graph::QueryGraph& q, const Plan& plan) {
  const size_t n = q.num_nodes();
  std::vector<size_t> position(n, 0);
  for (size_t i = 0; i < n; ++i) position[plan.order[i]] = i;
  std::vector<std::vector<BackwardNeighbor>> backward(n);
  for (size_t level = 1; level < n; ++level) {
    const graph::NodeId v = plan.order[level];
    for (const auto& [nbr, edge_label] : q.neighbors(v)) {
      if (position[nbr] < level) backward[level].push_back({nbr, edge_label});
    }
  }
  return backward;
}

}  // namespace

SubgraphEnumerator::EnumerationResult SubgraphEnumerator::Enumerate(
    const graph::QueryGraph& q, const Plan& plan, const Visitor& visitor,
    const Options& options, SearchStats* stats) {
  if (q.num_nodes() == 0) return EnumerationResult();
  assert(plan.order.size() == q.num_nodes());

  EnumerationResult result;
  const auto backward = ComputeBackward(q, plan);
  std::vector<graph::NodeId> mapping(q.num_nodes(), graph::kInvalidNode);
  std::vector<graph::NodeId> mapped_stack(q.num_nodes(),
                                          graph::kInvalidNode);
  std::vector<Frame> frames(q.num_nodes());
  // Root images: every data node with the root's label and enough degree.
  const graph::NodeId root = plan.order[0];
  const graph::Label root_label = q.label(root);
  if (root_label < graph_.num_labels()) {
    for (const graph::NodeId u : graph_.nodes_with_label(root_label)) {
      if (graph_.degree(u) >= q.degree(root)) {
        frames[0].candidates.push_back(u);
      }
    }
  }

  auto is_used = [&](graph::NodeId u, size_t level) {
    for (size_t i = 0; i < level; ++i) {
      if (mapped_stack[i] == u) return true;
    }
    return false;
  };

  auto fill_candidates = [&](size_t level) {
    const graph::NodeId v = plan.order[level];
    auto& frame = frames[level];
    frame.candidates.clear();
    frame.next_index = 0;
    const auto& anchors = backward[level];
    assert(!anchors.empty());
    size_t anchor_index = 0;
    size_t anchor_degree = SIZE_MAX;
    for (size_t i = 0; i < anchors.size(); ++i) {
      const size_t deg = graph_.degree(mapping[anchors[i].query_node]);
      if (deg < anchor_degree) {
        anchor_degree = deg;
        anchor_index = i;
      }
    }
    const auto anchor = anchors[anchor_index];
    const graph::NodeId anchor_image = mapping[anchor.query_node];
    const graph::Label want_label = q.label(v);
    const size_t want_degree = q.degree(v);
    const auto nbrs = graph_.neighbors(anchor_image);
    const auto edge_labels = graph_.edge_labels(anchor_image);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const graph::NodeId c = nbrs[i];
      if (stats != nullptr) ++stats->candidates_examined;
      if (edge_labels[i] != anchor.edge_label) continue;
      if (graph_.label(c) != want_label) continue;
      if (graph_.degree(c) < want_degree) continue;
      if (is_used(c, level)) continue;
      bool consistent = true;
      for (size_t a = 0; a < anchors.size(); ++a) {
        if (a == anchor_index) continue;
        const auto edge_label =
            graph_.EdgeLabelBetween(mapping[anchors[a].query_node], c);
        if (!edge_label.has_value() ||
            *edge_label != anchors[a].edge_label) {
          consistent = false;
          break;
        }
      }
      if (consistent) frame.candidates.push_back(c);
    }
  };

  // Iterative backtracking so deep data graphs cannot overflow the stack
  // and so early-stop bookkeeping stays simple.
  size_t level = 0;
  uint32_t steps_until_check = 1024;
  bool truncated = false;
  while (true) {
    if (--steps_until_check == 0) {
      steps_until_check = 1024;
      if (options.stop.StopRequested() || options.deadline.Expired()) {
        truncated = true;
        break;
      }
    }
    auto& frame = frames[level];
    if (frame.next_index >= frame.candidates.size()) {
      // Exhausted this level; backtrack.
      if (level == 0) break;
      --level;
      const graph::NodeId v = plan.order[level];
      mapping[v] = graph::kInvalidNode;
      mapped_stack[level] = graph::kInvalidNode;
      ++frames[level].next_index;
      continue;
    }
    const graph::NodeId c = frame.candidates[frame.next_index];
    const graph::NodeId v = plan.order[level];
    if (stats != nullptr) ++stats->recursive_calls;
    mapping[v] = c;
    mapped_stack[level] = c;
    if (level + 1 == q.num_nodes()) {
      // Full embedding.
      ++result.embedding_count;
      if (stats != nullptr) ++stats->embeddings_found;
      bool keep_going = true;
      if (visitor) keep_going = visitor(mapping);
      if (!keep_going || result.embedding_count >= options.max_embeddings) {
        truncated = result.embedding_count >= options.max_embeddings ||
                    !keep_going;
        mapping[v] = graph::kInvalidNode;
        mapped_stack[level] = graph::kInvalidNode;
        break;
      }
      mapping[v] = graph::kInvalidNode;
      mapped_stack[level] = graph::kInvalidNode;
      ++frame.next_index;
      continue;
    }
    ++level;
    fill_candidates(level);
  }

  result.complete = !truncated;
  result.outcome =
      result.embedding_count > 0 ? Outcome::kValid : Outcome::kInvalid;
  if (truncated && result.embedding_count == 0) {
    result.outcome = Outcome::kTimeout;
  }
  return result;
}

SubgraphEnumerator::ProjectionResult SubgraphEnumerator::ProjectPivot(
    const graph::QueryGraph& q, const Plan& plan, const Options& options,
    SearchStats* stats) {
  assert(q.has_pivot());
  ProjectionResult projection;
  std::unordered_set<graph::NodeId> distinct;
  const graph::NodeId pivot = q.pivot();
  const auto result = Enumerate(
      q, plan,
      [&](std::span<const graph::NodeId> mapping) {
        distinct.insert(mapping[pivot]);
        return true;
      },
      options, stats);
  projection.embedding_count = result.embedding_count;
  projection.complete = result.complete;
  projection.pivot_matches.assign(distinct.begin(), distinct.end());
  std::sort(projection.pivot_matches.begin(), projection.pivot_matches.end());
  return projection;
}

}  // namespace psi::match

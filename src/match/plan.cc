#include "match/plan.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

namespace psi::match {

std::string Plan::ToString() const {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) oss << " ";
    oss << order[i];
  }
  oss << "]";
  return oss.str();
}

bool IsValidPlan(const graph::QueryGraph& q, const Plan& plan,
                 graph::NodeId root) {
  if (plan.order.size() != q.num_nodes()) return false;
  if (plan.order.empty() || plan.order[0] != root) return false;
  uint64_t placed = 0;
  for (size_t i = 0; i < plan.order.size(); ++i) {
    const graph::NodeId v = plan.order[i];
    if (v >= q.num_nodes()) return false;
    if ((placed >> v) & 1ULL) return false;  // duplicate
    if (i > 0 && (q.neighbor_bits(v) & placed) == 0) return false;
    placed |= 1ULL << v;
  }
  return true;
}

Plan MakeHeuristicPlan(const graph::QueryGraph& q, const graph::Graph& g,
                       graph::NodeId root) {
  assert(root < q.num_nodes());
  Plan plan;
  plan.order.push_back(root);
  uint64_t placed = 1ULL << root;

  auto selectivity = [&](graph::NodeId v) {
    const graph::Label label = q.label(v);
    const double freq =
        label < g.num_labels()
            ? static_cast<double>(g.label_frequency(label))
            : 0.0;
    return freq / (1.0 + static_cast<double>(q.degree(v)));
  };

  while (plan.order.size() < q.num_nodes()) {
    graph::NodeId best = graph::kInvalidNode;
    double best_score = 0.0;
    for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
      if ((placed >> v) & 1ULL) continue;
      if ((q.neighbor_bits(v) & placed) == 0) continue;  // not on frontier
      const double score = selectivity(v);
      if (best == graph::kInvalidNode || score < best_score) {
        best = v;
        best_score = score;
      }
    }
    // Disconnected query: fall back to any unplaced node so the plan is
    // still a permutation (the evaluator will find no match, correctly).
    if (best == graph::kInvalidNode) {
      for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
        if (!((placed >> v) & 1ULL)) {
          best = v;
          break;
        }
      }
    }
    plan.order.push_back(best);
    placed |= 1ULL << best;
  }
  return plan;
}

Plan MakeRandomPlan(const graph::QueryGraph& q, graph::NodeId root,
                    util::Rng& rng) {
  assert(root < q.num_nodes());
  Plan plan;
  plan.order.push_back(root);
  uint64_t placed = 1ULL << root;
  std::vector<graph::NodeId> frontier;
  while (plan.order.size() < q.num_nodes()) {
    frontier.clear();
    for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
      if (!((placed >> v) & 1ULL) && (q.neighbor_bits(v) & placed) != 0) {
        frontier.push_back(v);
      }
    }
    if (frontier.empty()) {
      for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
        if (!((placed >> v) & 1ULL)) frontier.push_back(v);
      }
    }
    const graph::NodeId pick = frontier[rng.NextBounded(frontier.size())];
    plan.order.push_back(pick);
    placed |= 1ULL << pick;
  }
  return plan;
}

std::vector<Plan> SamplePlanPool(const graph::QueryGraph& q,
                                 const graph::Graph& g, graph::NodeId root,
                                 size_t count, util::Rng& rng) {
  std::vector<Plan> pool;
  if (count == 0 || q.num_nodes() == 0) return pool;
  pool.push_back(MakeHeuristicPlan(q, g, root));

  std::set<std::vector<graph::NodeId>> seen;
  seen.insert(pool[0].order);
  // Bounded retries: small queries may not have `count` distinct plans.
  size_t attempts = 0;
  const size_t max_attempts = count * 20 + 16;
  while (pool.size() < count && attempts < max_attempts) {
    ++attempts;
    Plan p = MakeRandomPlan(q, root, rng);
    if (seen.insert(p.order).second) pool.push_back(std::move(p));
  }
  return pool;
}

}  // namespace psi::match

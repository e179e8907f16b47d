#ifndef SMARTPSI_MATCH_PLAN_H_
#define SMARTPSI_MATCH_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "util/random.h"

namespace psi::match {

/// A matching order over the query nodes: `order[0]` is matched first,
/// then `order[1]`, etc. For PSI evaluation `order[0]` must be the pivot.
///
/// Every plan in this codebase is *connected*: each node after the first is
/// adjacent (in the query) to at least one earlier node, so candidate
/// generation can always anchor on a mapped neighbor.
struct Plan {
  std::vector<graph::NodeId> order;

  size_t size() const { return order.size(); }
  bool empty() const { return order.empty(); }

  std::string ToString() const;
};

/// True iff `plan` is a permutation of q's nodes, starts at `root`, and is
/// connected in the sense above.
bool IsValidPlan(const graph::QueryGraph& q, const Plan& plan,
                 graph::NodeId root);

/// Selectivity-based heuristic order (the "standard execution plan" used as
/// the recovery fallback, paper §4.3, and by the pure optimistic /
/// pessimistic drivers): starting from `root`, repeatedly append the
/// frontier query node minimizing label_frequency(g) / (1 + degree), i.e.,
/// rare labels and high degrees first — the classic GraphQL/TurboIso-style
/// ranking.
Plan MakeHeuristicPlan(const graph::QueryGraph& q, const graph::Graph& g,
                       graph::NodeId root);

/// Uniformly random connected order starting at `root`.
Plan MakeRandomPlan(const graph::QueryGraph& q, graph::NodeId root,
                    util::Rng& rng);

/// The plan pool Model β classifies over (paper §4.2.2): the heuristic plan
/// (class 0) plus up to `count - 1` distinct random connected plans.
/// For small queries where fewer distinct plans exist, the pool is shorter.
std::vector<Plan> SamplePlanPool(const graph::QueryGraph& q,
                                 const graph::Graph& g, graph::NodeId root,
                                 size_t count, util::Rng& rng);

}  // namespace psi::match

#endif  // SMARTPSI_MATCH_PLAN_H_

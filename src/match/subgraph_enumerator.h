#ifndef SMARTPSI_MATCH_SUBGRAPH_ENUMERATOR_H_
#define SMARTPSI_MATCH_SUBGRAPH_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "match/plan.h"
#include "match/search_stats.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace psi::match {

/// Generic backtracking subgraph-isomorphism enumeration with label, degree
/// and adjacency filtering — the "plain subgraph isomorphism" that existing
/// applications use for PSI (paper §1): find *all* embeddings, then project
/// the distinct pivot images.
///
/// Also the ground-truth oracle for the test suite and the counter behind
/// the Table 1 reproduction.
class SubgraphEnumerator {
 public:
  struct Options {
    /// Stop after this many embeddings (the visitor stops seeing more).
    uint64_t max_embeddings = UINT64_MAX;
    util::Deadline deadline;
    util::StopToken stop;
  };

  struct EnumerationResult {
    uint64_t embedding_count = 0;
    /// False if the run was cut short (max_embeddings, deadline, or stop);
    /// embedding_count is then a lower bound.
    bool complete = true;
    Outcome outcome = Outcome::kInvalid;  // kValid iff >= 1 embedding found
  };

  /// `visitor(mapping)` receives query-node -> data-node for each embedding;
  /// return false to stop the enumeration early.
  using Visitor =
      std::function<bool(std::span<const graph::NodeId> mapping)>;

  explicit SubgraphEnumerator(const graph::Graph& g) : graph_(g) {}

  /// Enumerates embeddings of `q` following `plan` (a valid plan rooted at
  /// plan.order[0]; any root works). `visitor` may be null.
  EnumerationResult Enumerate(const graph::QueryGraph& q, const Plan& plan,
                              const Visitor& visitor, const Options& options,
                              SearchStats* stats = nullptr);

  /// PSI by projection: enumerates all embeddings and collects the distinct
  /// data nodes bound to the query pivot. Requires q.has_pivot(). The result
  /// is sorted. `complete` is false if truncated, in which case the set is
  /// a subset of the true answer.
  struct ProjectionResult {
    std::vector<graph::NodeId> pivot_matches;
    uint64_t embedding_count = 0;
    bool complete = true;
  };
  ProjectionResult ProjectPivot(const graph::QueryGraph& q, const Plan& plan,
                                const Options& options,
                                SearchStats* stats = nullptr);

 private:
  struct Frame {
    std::vector<graph::NodeId> candidates;
    size_t next_index = 0;
  };

  const graph::Graph& graph_;
};

}  // namespace psi::match

#endif  // SMARTPSI_MATCH_SUBGRAPH_ENUMERATOR_H_

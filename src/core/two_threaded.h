#ifndef SMARTPSI_CORE_TWO_THREADED_H_
#define SMARTPSI_CORE_TWO_THREADED_H_

#include <vector>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "match/search_stats.h"
#include "signature/signature_matrix.h"
#include "util/timer.h"

namespace psi::core {

/// The two-threaded baseline of paper §4.1 (Figure 5): for every candidate
/// node, an optimistic thread races a pessimistic thread; the first decisive
/// finisher stops the other and supplies the answer. Each node therefore
/// costs ≈ min(T_opt, T_pess) wall-clock but 2× CPU — the under-utilization
/// and thread-churn overheads that motivate SmartPSI. Faithful to the
/// paper, it spawns (and joins) two fresh std::threads per node: the
/// "initiating and stopping millions of threads" overhead it criticizes.
class TwoThreadedBaseline {
 public:
  struct Options {
    util::Deadline deadline;
  };

  struct Result {
    std::vector<graph::NodeId> valid_nodes;  // sorted
    bool complete = true;
    double seconds = 0.0;
    /// How often each method won the race (decided first).
    size_t optimistic_wins = 0;
    size_t pessimistic_wins = 0;
    match::SearchStats optimistic_stats;
    match::SearchStats pessimistic_stats;
  };

  TwoThreadedBaseline(const graph::Graph& g,
                      const signature::SignatureMatrix& graph_sigs)
      : graph_(g), graph_sigs_(graph_sigs) {}

  Result Evaluate(const graph::QueryGraph& q, const Options& options);

 private:
  const graph::Graph& graph_;
  const signature::SignatureMatrix& graph_sigs_;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_TWO_THREADED_H_

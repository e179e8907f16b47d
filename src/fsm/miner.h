#ifndef SMARTPSI_FSM_MINER_H_
#define SMARTPSI_FSM_MINER_H_

#include <cstdint>
#include <vector>

#include "fsm/support.h"
#include "graph/graph.h"
#include "graph/query_graph.h"
#include "signature/builders.h"
#include "signature/signature_matrix.h"
#include "util/timer.h"

namespace psi::fsm {

/// Frequent subgraph mining over a single large graph (GraMi / ScaleMine
/// style, paper §5.5): grow patterns edge by edge from frequent single
/// edges, prune by MNI anti-monotonicity, and evaluate candidate support
/// with either plain subgraph-isomorphism enumeration (the ScaleMine
/// baseline) or PSI (ScaleMine+SmartPSI).
struct FsmConfig {
  /// MNI support threshold.
  uint64_t min_support = 100;
  /// Maximum pattern size in edges (paper's Weibo experiment uses 6).
  size_t max_edges = 6;
  /// Maximum pattern size in nodes (canonicalization bound).
  size_t max_nodes = 7;
  /// Worker threads for parallel support evaluation — the stand-in for the
  /// paper's "compute nodes" axis in Figure 12.
  size_t num_threads = 1;
  SupportMethod method = SupportMethod::kEnumeration;
  /// Signature depth for the kPsi method.
  uint32_t signature_depth = 2;
  /// When non-null, support is counted through this service's batched
  /// submission path — one SubmitBatch of per-pivot pessimistic probes per
  /// candidate pattern, pinned to one catalog snapshot (DESIGN.md §17) —
  /// and `method`/`signature_depth` are ignored (the snapshot owns the
  /// signatures). Evaluation parallelism then comes from the service's
  /// workers; `num_threads` still parallelizes canonicalization. The mined
  /// frequent set is identical to the in-process methods'.
  service::PsiService* service = nullptr;
  /// Catalog graph name the probes run against; empty = service default.
  std::string service_graph;
};

struct MinedPattern {
  graph::QueryGraph pattern;
  /// kPsi and served: exactly min_support (every probe stops there).
  /// kEnumeration: a lower bound on the MNI, >= min_support.
  uint64_t support = 0;
};

struct FsmResult {
  std::vector<MinedPattern> frequent;
  size_t candidates_evaluated = 0;
  double seconds = 0.0;
  /// Seconds spent building graph signatures (kPsi only; included in
  /// `seconds`).
  double signature_seconds = 0.0;
  /// False iff the deadline interrupted mining.
  bool complete = true;
};

class FsmMiner {
 public:
  /// `g` must outlive the miner.
  FsmMiner(const graph::Graph& g, FsmConfig config)
      : graph_(g), config_(config) {}

  /// Runs the full mine. Deterministic (no randomness involved).
  FsmResult Mine(util::Deadline deadline = util::Deadline());

 private:
  const graph::Graph& graph_;
  FsmConfig config_;
};

}  // namespace psi::fsm

#endif  // SMARTPSI_FSM_MINER_H_

#ifndef SMARTPSI_FSM_SUPPORT_H_
#define SMARTPSI_FSM_SUPPORT_H_

#include <cstdint>
#include <future>
#include <optional>
#include <span>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "service/request.h"
#include "service/service.h"
#include "signature/signature_matrix.h"
#include "util/timer.h"

namespace psi::fsm {

/// How a pattern's MNI support is computed.
enum class SupportMethod {
  /// ScaleMine-style baseline: enumerate embeddings with plain subgraph
  /// isomorphism and count distinct images per pattern node.
  kEnumeration,
  /// SmartPSI-style: one pessimistic PSI probe per pattern node (stop at
  /// the first embedding per candidate, and at min_support valid nodes per
  /// probe), with signature pruning — the same probe a served batch runs.
  kPsi,
};

const char* SupportMethodName(SupportMethod method);

/// Result of one support evaluation, thresholded at `min_support`:
/// MNI (minimum node image) support = min over pattern nodes v of the
/// number of distinct data nodes that bind v in some embedding.
struct SupportResult {
  /// True iff MNI >= min_support.
  bool frequent = false;
  /// kPsi and served: exactly min_support when `frequent` and min_support
  /// > 0 (each probe stops there); otherwise the image count of the first
  /// pattern node, in node order, that falls short — below min_support and
  /// >= the MNI. Both paths reduce through ReduceSupport, so they report
  /// equal supports.
  /// kEnumeration: a lower bound on the MNI, >= min_support when
  /// `frequent`.
  uint64_t support = 0;
  /// False if the deadline interrupted the evaluation (frequent is then
  /// "unknown = treated infrequent").
  bool complete = true;
};

/// The one support reduction of the kPsi and served paths. `counts` holds
/// per-pivot valid-node counts in pattern-node order; it may end at the
/// first count below min_support (the in-process path probes no further).
/// The support is the minimum of the counts up to and including that
/// first short one. With every probe limited to min_support valid nodes,
/// as both paths do, a frequent pattern's support is exactly min_support.
SupportResult ReduceSupport(std::span<const uint64_t> counts,
                            uint64_t min_support);

/// Evaluates MNI support of `pattern` (no pivot needed; every node is
/// pivoted in turn) against `g`, stopping early as soon as frequency or
/// infrequency is decided. `graph_sigs` is only used by kPsi (may be null
/// for kEnumeration). kPsi runs each pivot through core::EvaluatePure with
/// max_valid_nodes = min_support over one core::BatchEvalContext, the same
/// work a served probe batch does, and stops after the first pivot below
/// the threshold.
SupportResult EvaluateSupport(const graph::Graph& g,
                              const signature::SignatureMatrix* graph_sigs,
                              const graph::QueryGraph& pattern,
                              uint64_t min_support, SupportMethod method,
                              util::Deadline deadline);

// --- Service-backed support (DESIGN.md §17) -------------------------------
//
// The mining-at-scale path: each candidate pattern's per-pivot PSI probes
// go to a PsiService as ONE batch (SubmitBatch), pinned to one catalog
// snapshot, so support counting inherits hot-swap safety, deadlines,
// admission control, metrics and fault injection from the serving layer.
// Probes are pessimistic pure-method queries limited to min_support valid
// nodes each (QueryRequest::max_valid_nodes), and the settled counts go
// through ReduceSupport: the served support equals the in-process kPsi
// support for every pattern, not only the verdict.

/// Submits the per-pivot probe batch for `pattern` without blocking: one
/// kPessimistic QueryRequest per pattern node with max_valid_nodes =
/// `min_support`, all against the service's default graph. Returns
/// std::nullopt when the batch was shed or the pattern is empty.
/// `deadline_seconds` <= 0 means the service default.
std::optional<std::future<service::BatchResponse>> SubmitSupportBatch(
    service::PsiService& service, const graph::QueryGraph& pattern,
    uint64_t min_support, double deadline_seconds = 0.0);

/// Folds a settled probe batch into a SupportResult through ReduceSupport,
/// over each pivot's valid-node count. Any non-kOk member leaves the
/// verdict unknown (complete = false, treated infrequent) — one bad probe
/// degrades this pattern, never its siblings.
SupportResult ReduceServedSupport(const service::BatchResponse& response,
                                  size_t num_pattern_nodes,
                                  uint64_t min_support);

}  // namespace psi::fsm

#endif  // SMARTPSI_FSM_SUPPORT_H_

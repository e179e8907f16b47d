#include "fsm/support.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/batch_context.h"
#include "core/pure_drivers.h"
#include "match/plan.h"
#include "match/search_scratch.h"
#include "match/subgraph_enumerator.h"

namespace psi::fsm {

const char* SupportMethodName(SupportMethod method) {
  switch (method) {
    case SupportMethod::kEnumeration:
      return "enumeration";
    case SupportMethod::kPsi:
      return "psi";
  }
  return "unknown";
}

namespace {

SupportResult EvaluateByEnumeration(const graph::Graph& g,
                                    const graph::QueryGraph& pattern,
                                    uint64_t min_support,
                                    util::Deadline deadline) {
  SupportResult result;
  const size_t n = pattern.num_nodes();

  // Root the plan at the most selective pattern node.
  graph::NodeId root = 0;
  double best = -1.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::Label label = pattern.label(v);
    const double freq = label < g.num_labels()
                            ? static_cast<double>(g.label_frequency(label))
                            : 0.0;
    const double score = freq / (1.0 + static_cast<double>(pattern.degree(v)));
    if (best < 0.0 || score < best) {
      best = score;
      root = v;
    }
  }
  const match::Plan plan = match::MakeHeuristicPlan(pattern, g, root);

  std::vector<std::unordered_set<graph::NodeId>> images(n);
  match::SubgraphEnumerator enumerator(g);
  match::SubgraphEnumerator::Options options;
  options.deadline = deadline;
  const auto enumeration = enumerator.Enumerate(
      pattern, plan,
      [&](std::span<const graph::NodeId> mapping) {
        bool all_reached = true;
        for (size_t v = 0; v < n; ++v) {
          images[v].insert(mapping[v]);
          if (images[v].size() < min_support) all_reached = false;
        }
        // Once every node has min_support distinct images, MNI >= threshold
        // is certain — stop enumerating.
        return !all_reached;
      },
      options);

  uint64_t mni = UINT64_MAX;
  for (const auto& set : images) {
    mni = std::min<uint64_t>(mni, set.size());
  }
  if (mni == UINT64_MAX) mni = 0;
  result.support = mni;
  result.frequent = mni >= min_support;
  // The enumeration is "incomplete" both when we stopped on success and
  // when the deadline fired; only the latter leaves the answer unknown.
  result.complete = enumeration.complete || result.frequent;
  return result;
}

SupportResult EvaluateByPsi(const graph::Graph& g,
                            const signature::SignatureMatrix& graph_sigs,
                            const graph::QueryGraph& pattern,
                            uint64_t min_support, util::Deadline deadline) {
  // The served batch's work, in process: one context shares the pattern's
  // signatures and candidate lists across its pivots, one scratch pool the
  // search arenas.
  core::BatchEvalContext context(g, graph_sigs);
  match::SearchScratchPool scratch;
  core::PureDriverOptions options;
  options.strategy = core::PureStrategy::kPessimistic;
  options.deadline = deadline;
  options.max_valid_nodes = min_support;
  options.scratch_pool = &scratch;

  graph::QueryGraph pivoted = pattern;  // local copy to move the pivot
  std::vector<uint64_t> counts;
  counts.reserve(pattern.num_nodes());
  for (graph::NodeId v = 0; v < pattern.num_nodes(); ++v) {
    pivoted.set_pivot(v);
    options.prepared = context.Prepare(pivoted).context;
    const core::PureDriverResult probe =
        core::EvaluatePure(g, graph_sigs, pivoted, options);
    if (!probe.complete) {
      SupportResult result;
      result.complete = false;
      return result;
    }
    counts.push_back(probe.valid_nodes.size());
    if (counts.back() < min_support) break;  // anti-monotone: infrequent
  }
  return ReduceSupport(counts, min_support);
}

}  // namespace

SupportResult ReduceSupport(std::span<const uint64_t> counts,
                            uint64_t min_support) {
  uint64_t mni = UINT64_MAX;
  for (const uint64_t count : counts) {
    mni = std::min(mni, count);
    if (count < min_support) break;  // the in-process path stops here too
  }
  SupportResult result;
  result.support = mni == UINT64_MAX ? 0 : mni;
  result.frequent = result.support >= min_support;
  return result;
}

SupportResult EvaluateSupport(const graph::Graph& g,
                              const signature::SignatureMatrix* graph_sigs,
                              const graph::QueryGraph& pattern,
                              uint64_t min_support, SupportMethod method,
                              util::Deadline deadline) {
  if (pattern.num_nodes() == 0) return SupportResult{};
  if (method == SupportMethod::kEnumeration) {
    return EvaluateByEnumeration(g, pattern, min_support, deadline);
  }
  return EvaluateByPsi(g, *graph_sigs, pattern, min_support, deadline);
}

std::optional<std::future<service::BatchResponse>> SubmitSupportBatch(
    service::PsiService& service, const graph::QueryGraph& pattern,
    uint64_t min_support, double deadline_seconds) {
  if (pattern.num_nodes() == 0) return std::nullopt;
  service::BatchRequest batch;
  batch.deadline_seconds = deadline_seconds;
  batch.queries.reserve(pattern.num_nodes());
  for (graph::NodeId v = 0; v < pattern.num_nodes(); ++v) {
    service::QueryRequest probe;
    probe.query = pattern;
    probe.query.set_pivot(v);
    probe.method = service::Method::kPessimistic;
    probe.max_valid_nodes = min_support;
    batch.queries.push_back(std::move(probe));
  }
  // Per-pivot probes of one pattern share their pivot-independent
  // structure, so the batch context builds the pattern's signature rows
  // once for all of them — the in-process kPsi trick, recovered through
  // the serving layer.
  return service.SubmitBatch(std::move(batch));
}

SupportResult ReduceServedSupport(const service::BatchResponse& response,
                                  size_t num_pattern_nodes,
                                  uint64_t min_support) {
  SupportResult result;
  if (response.responses.size() != num_pattern_nodes) {
    result.complete = false;
    return result;
  }
  std::vector<uint64_t> counts;
  counts.reserve(num_pattern_nodes);
  for (const service::QueryResponse& probe : response.responses) {
    if (!probe.ok()) {
      result.complete = false;
      return result;
    }
    counts.push_back(probe.valid_nodes.size());
  }
  return ReduceSupport(counts, min_support);
}

}  // namespace psi::fsm

#include "core/batch_context.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "match/candidates.h"
#include "signature/builders.h"

namespace psi::core {

namespace {

/// Exact pivot-independent structure key: node labels plus the full edge
/// list with edge labels, in adjacency order. Over-discriminates safely —
/// two equal queries built in different insertion orders merely miss a
/// reuse; they can never falsely share.
std::string StructureKey(const graph::QueryGraph& q) {
  std::string key;
  key.reserve(8 * q.num_nodes());
  key += 'n';
  key += std::to_string(q.num_nodes());
  for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
    key += ',';
    key += std::to_string(q.label(v));
  }
  for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
    for (const auto& [nbr, elabel] : q.neighbors(v)) {
      if (v < nbr) {
        key += ';';
        key += std::to_string(v);
        key += '-';
        key += std::to_string(nbr);
        key += ':';
        key += std::to_string(elabel);
      }
    }
  }
  return key;
}

/// Exact pivot requirement class: the only facts ExtractPivotCandidates
/// reads — pivot label, pivot degree, and the sorted multiset of
/// (edge label, neighbor label) pairs on the pivot's query edges.
std::string PivotClassKey(const graph::QueryGraph& q) {
  const graph::NodeId pivot = q.pivot();
  std::vector<std::pair<graph::Label, graph::Label>> pairs;
  pairs.reserve(q.degree(pivot));
  for (const auto& [nbr, elabel] : q.neighbors(pivot)) {
    pairs.emplace_back(elabel, q.label(nbr));
  }
  std::sort(pairs.begin(), pairs.end());
  std::string key;
  key += 'l';
  key += std::to_string(q.label(pivot));
  key += 'd';
  key += std::to_string(q.degree(pivot));
  for (const auto& [elabel, nlabel] : pairs) {
    key += ';';
    key += std::to_string(elabel);
    key += ':';
    key += std::to_string(nlabel);
  }
  return key;
}

}  // namespace

BatchEvalContext::Prepared BatchEvalContext::Prepare(
    const graph::QueryGraph& q) {
  assert(q.has_pivot() && "batch preparation requires a pivoted query");

  const std::string structure_key = StructureKey(q);
  std::string query_key = structure_key;
  query_key += "|p";
  query_key += std::to_string(q.pivot());

  if (const auto it = by_query_.find(query_key); it != by_query_.end()) {
    return {&it->second, /*reused=*/true};
  }

  QueryContext context;
  bool reused = false;
  // Same feasibility test as PrepareQuery: a query-node label absent from
  // the data graph means the answer is empty.
  for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
    const graph::Label label = q.label(v);
    if (label >= graph_.num_labels() || graph_.label_frequency(label) == 0) {
      context.feasible = false;
      break;
    }
  }

  if (context.feasible) {
    auto sit = sigs_by_structure_.find(structure_key);
    if (sit == sigs_by_structure_.end()) {
      sit = sigs_by_structure_
                .emplace(structure_key,
                         signature::BuildSignatures(
                             q, graph_sigs_.method(), graph_sigs_.depth(),
                             graph_sigs_.num_labels(), graph_sigs_.decay()))
                .first;
    } else {
      reused = true;
    }
    context.query_sigs = sit->second;

    const std::string class_key = PivotClassKey(q);
    auto cit = candidates_by_class_.find(class_key);
    if (cit == candidates_by_class_.end()) {
      cit = candidates_by_class_
                .emplace(class_key, match::ExtractPivotCandidates(graph_, q))
                .first;
    } else {
      reused = true;
    }
    context.candidates = cit->second;
  }

  return {&by_query_.emplace(query_key, std::move(context)).first->second,
          reused};
}

}  // namespace psi::core

#include "service/workload.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "graph/query_extractor.h"
#include "graph/types.h"

namespace psi::service {

namespace {

using util::Result;
using util::Status;

/// Splits `s` on `sep`, keeping empty pieces (so "0,,1" is caught as
/// malformed instead of silently collapsing).
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : s) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

Result<QueryRequest> ParseWorkloadLine(const std::string& line) {
  QueryRequest request;
  std::vector<graph::Label> labels;
  // Edges parse before nodes are known, so buffer them.
  struct PendingEdge {
    uint64_t u, v, label;
  };
  std::vector<PendingEdge> edges;
  bool have_pivot = false;
  uint64_t pivot = 0;

  std::istringstream tokens(line);
  std::string token;
  while (tokens >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value token, got '" +
                                     token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "v") {
      for (const std::string& piece : Split(value, ',')) {
        uint64_t label = 0;
        if (!ParseU64(piece, &label)) {
          return Status::InvalidArgument("bad node label '" + piece + "'");
        }
        labels.push_back(static_cast<graph::Label>(label));
      }
    } else if (key == "e") {
      if (value.empty()) continue;  // edgeless single-node query
      for (const std::string& piece : Split(value, ',')) {
        const std::vector<std::string> ends = Split(piece, '-');
        if (ends.size() != 2 && ends.size() != 3) {
          return Status::InvalidArgument("bad edge '" + piece + "'");
        }
        PendingEdge e{0, 0, graph::kDefaultEdgeLabel};
        if (!ParseU64(ends[0], &e.u) || !ParseU64(ends[1], &e.v) ||
            (ends.size() == 3 && !ParseU64(ends[2], &e.label))) {
          return Status::InvalidArgument("bad edge '" + piece + "'");
        }
        edges.push_back(e);
      }
    } else if (key == "p") {
      if (!ParseU64(value, &pivot)) {
        return Status::InvalidArgument("bad pivot '" + value + "'");
      }
      have_pivot = true;
    } else if (key == "d") {
      double ms = 0.0;
      if (!ParseDouble(value, &ms) || ms < 0.0) {
        return Status::InvalidArgument("bad deadline '" + value + "'");
      }
      request.deadline_seconds = ms / 1e3;
    } else if (key == "m") {
      if (value == "smart") {
        request.method = Method::kSmart;
      } else if (value == "optimistic") {
        request.method = Method::kOptimistic;
      } else if (value == "pessimistic") {
        request.method = Method::kPessimistic;
      } else {
        return Status::InvalidArgument("unknown method '" + value + "'");
      }
    } else if (key == "id") {
      if (!ParseU64(value, &request.id)) {
        return Status::InvalidArgument("bad id '" + value + "'");
      }
    } else if (key == "g") {
      if (value.empty()) {
        return Status::InvalidArgument("empty graph name (g=)");
      }
      request.graph = value;
    } else {
      return Status::InvalidArgument("unknown key '" + key + "'");
    }
  }

  if (labels.empty()) {
    return Status::InvalidArgument("request has no nodes (missing v=)");
  }
  if (labels.size() > graph::QueryGraph::kMaxNodes) {
    return Status::InvalidArgument("query exceeds " +
                                   std::to_string(graph::QueryGraph::kMaxNodes) +
                                   " nodes");
  }
  if (!have_pivot || pivot >= labels.size()) {
    return Status::InvalidArgument("missing or out-of-range pivot");
  }
  for (const graph::Label l : labels) request.query.AddNode(l);
  for (const auto& e : edges) {
    if (e.u >= labels.size() || e.v >= labels.size() || e.u == e.v) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    request.query.AddEdge(static_cast<graph::NodeId>(e.u),
                          static_cast<graph::NodeId>(e.v),
                          static_cast<graph::Label>(e.label));
  }
  request.query.set_pivot(static_cast<graph::NodeId>(pivot));
  return request;
}

std::string FormatWorkloadLine(const QueryRequest& request) {
  std::ostringstream oss;
  oss << "v=";
  for (size_t v = 0; v < request.query.num_nodes(); ++v) {
    if (v > 0) oss << ",";
    oss << request.query.label(static_cast<graph::NodeId>(v));
  }
  oss << " e=";
  bool first = true;
  for (size_t v = 0; v < request.query.num_nodes(); ++v) {
    for (const auto& [nbr, label] :
         request.query.neighbors(static_cast<graph::NodeId>(v))) {
      if (v >= nbr) continue;
      if (!first) oss << ",";
      first = false;
      oss << v << "-" << nbr;
      if (label != graph::kDefaultEdgeLabel) oss << "-" << label;
    }
  }
  oss << " p=" << request.query.pivot();
  if (request.deadline_seconds > 0.0) {
    oss << " d=" << request.deadline_seconds * 1e3;
  }
  if (request.method != Method::kSmart) {
    oss << " m=" << MethodName(request.method);
  }
  if (request.id != 0) oss << " id=" << request.id;
  if (!request.graph.empty()) oss << " g=" << request.graph;
  return oss.str();
}

std::vector<QueryRequest> ExtractWorkload(const graph::Graph& g,
                                          const WorkloadSpec& spec,
                                          util::Rng& rng) {
  const graph::QueryExtractor extractor(g);
  const std::vector<graph::QueryGraph> queries =
      extractor.ExtractMany(spec.query_size, spec.count, rng);
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest request;
    request.id = i + 1;
    request.query = queries[i];
    request.method = spec.method;
    if (spec.deadline_ms_max > 0.0) {
      const double lo = std::min(spec.deadline_ms_min, spec.deadline_ms_max);
      const double hi = std::max(spec.deadline_ms_min, spec.deadline_ms_max);
      request.deadline_seconds =
          (lo + (hi - lo) * rng.NextDouble()) / 1e3;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace psi::service

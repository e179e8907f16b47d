#include "fsm/miner.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_set>

#include "fsm/canonical.h"
#include "util/thread_pool.h"

namespace psi::fsm {

namespace {

/// An undirected frequent edge type: labels (a <= b) joined by edge label e.
struct EdgeType {
  graph::Label a;
  graph::Label e;
  graph::Label b;

  bool operator<(const EdgeType& other) const {
    return std::tie(a, e, b) < std::tie(other.a, other.e, other.b);
  }
};

graph::QueryGraph MakeEdgePattern(const EdgeType& type) {
  graph::QueryGraph p;
  const graph::NodeId u = p.AddNode(type.a);
  const graph::NodeId v = p.AddNode(type.b);
  p.AddEdge(u, v, type.e);
  return p;
}

}  // namespace

FsmResult FsmMiner::Mine(util::Deadline deadline) {
  util::WallTimer total_timer;
  FsmResult result;

  // Signatures are shared by every kPsi support evaluation. The service-
  // backed mode skips the build entirely — the pinned snapshot owns them.
  signature::SignatureMatrix graph_sigs;
  if (config_.service == nullptr && config_.method == SupportMethod::kPsi) {
    util::WallTimer sig_timer;
    util::ThreadPool sig_pool(config_.num_threads);
    graph_sigs = signature::BuildMatrixSignatures(
        graph_, config_.signature_depth, graph_.num_labels(),
        config_.num_threads > 1 ? &sig_pool : nullptr);
    result.signature_seconds = sig_timer.Seconds();
  }
  const signature::SignatureMatrix* sigs =
      config_.method == SupportMethod::kPsi ? &graph_sigs : nullptr;

  // ---- Level 1: distinct edge types present in the graph ---------------
  std::set<EdgeType> edge_types;
  for (graph::NodeId u = 0; u < graph_.num_nodes(); ++u) {
    const auto nbrs = graph_.neighbors(u);
    const auto elabels = graph_.edge_labels(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (u > nbrs[i]) continue;
      const graph::Label la = graph_.label(u);
      const graph::Label lb = graph_.label(nbrs[i]);
      edge_types.insert({std::min(la, lb), elabels[i], std::max(la, lb)});
    }
  }

  util::ThreadPool pool(config_.num_threads);
  std::unordered_set<std::string> seen_codes;

  /// Evaluates a batch of candidate patterns in parallel; returns the
  /// frequent survivors.
  auto evaluate_batch = [&](std::vector<graph::QueryGraph>& batch)
      -> std::vector<MinedPattern> {
    // Per-pattern evaluations can finish "decided" even past the deadline
    // (early frequent-stop); the mining level itself must not start late.
    if (deadline.Expired()) {
      result.complete = false;
      return {};
    }
    std::vector<SupportResult> supports(batch.size());
    result.candidates_evaluated += batch.size();
    if (config_.service != nullptr) {
      // Service-backed mode: one probe batch per pattern, submitted in
      // windows bounded by the service's admission queue so a large mining
      // level can never shed its own wave. The service's workers provide
      // the parallelism; futures drain in order, so the frequent set is
      // deterministic regardless of worker count.
      const size_t window =
          std::max<size_t>(1, config_.service->options().max_queue_depth);
      for (size_t begin = 0; begin < batch.size(); begin += window) {
        const size_t end = std::min(batch.size(), begin + window);
        std::vector<std::optional<std::future<service::BatchResponse>>>
            futures;
        futures.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          // An already-expired deadline must expire service-side too (0
          // would select the service default, which may be unbounded).
          const double remaining =
              deadline.IsInfinite()
                  ? 0.0
                  : std::max(1e-6, deadline.RemainingSeconds());
          futures.push_back(SubmitSupportBatch(
              *config_.service, batch[i], config_.min_support, remaining));
        }
        for (size_t i = begin; i < end; ++i) {
          auto& future = futures[i - begin];
          if (future.has_value()) {
            supports[i] = ReduceServedSupport(
                future->get(), batch[i].num_nodes(), config_.min_support);
          } else {
            supports[i].complete = false;  // shed whole: verdict unknown
          }
        }
      }
    } else if (config_.num_threads > 1 && batch.size() > 1) {
      for (size_t i = 0; i < batch.size(); ++i) {
        pool.Submit([&, i] {
          supports[i] = EvaluateSupport(graph_, sigs, batch[i],
                                        config_.min_support, config_.method,
                                        deadline);
        });
      }
      pool.Wait();
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        supports[i] = EvaluateSupport(graph_, sigs, batch[i],
                                      config_.min_support, config_.method,
                                      deadline);
      }
    }
    std::vector<MinedPattern> frequent;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!supports[i].complete) result.complete = false;
      if (supports[i].frequent) {
        frequent.push_back({std::move(batch[i]), supports[i].support});
      }
    }
    return frequent;
  };

  std::vector<graph::QueryGraph> level_candidates;
  for (const EdgeType& type : edge_types) {
    graph::QueryGraph p = MakeEdgePattern(type);
    seen_codes.insert(CanonicalCode(p));
    level_candidates.push_back(std::move(p));
  }
  std::vector<MinedPattern> current = evaluate_batch(level_candidates);
  for (const MinedPattern& m : current) result.frequent.push_back(m);

  // Frequent edge types drive extensions (anti-monotonicity: an edge type
  // that is itself infrequent cannot appear in a frequent pattern).
  std::vector<EdgeType> frequent_edge_types;
  for (const MinedPattern& m : current) {
    const graph::Label la = m.pattern.label(0);
    const graph::Label lb = m.pattern.label(1);
    frequent_edge_types.push_back(
        {std::min(la, lb), m.pattern.EdgeLabel(0, 1), std::max(la, lb)});
  }

  // ---- Grow: one edge per level -----------------------------------------
  for (size_t edges = 2;
       edges <= config_.max_edges && !current.empty() && result.complete;
       ++edges) {
    // Generate all children first (cheap), then canonicalize in parallel
    // (factorial-cost), then deduplicate serially against `seen_codes`.
    std::vector<graph::QueryGraph> children;
    for (const MinedPattern& m : current) {
      const graph::QueryGraph& p = m.pattern;

      // (a) Attach a new node through a frequent edge type.
      if (p.num_nodes() < kMaxPatternNodes) {
        for (graph::NodeId v = 0; v < p.num_nodes(); ++v) {
          for (const EdgeType& type : frequent_edge_types) {
            for (int flip = 0; flip < 2; ++flip) {
              const graph::Label from = flip == 0 ? type.a : type.b;
              const graph::Label to = flip == 0 ? type.b : type.a;
              if (p.label(v) != from) continue;
              graph::QueryGraph child = p;
              const graph::NodeId w = child.AddNode(to);
              child.AddEdge(v, w, type.e);
              children.push_back(std::move(child));
              if (type.a == type.b) break;  // both flips identical
            }
          }
        }
      }

      // (b) Close an edge between two existing non-adjacent nodes.
      for (graph::NodeId u = 0; u < p.num_nodes(); ++u) {
        for (graph::NodeId v = u + 1; v < p.num_nodes(); ++v) {
          if (p.HasEdge(u, v)) continue;
          const graph::Label la = std::min(p.label(u), p.label(v));
          const graph::Label lb = std::max(p.label(u), p.label(v));
          for (const EdgeType& type : frequent_edge_types) {
            if (type.a != la || type.b != lb) continue;
            graph::QueryGraph child = p;
            child.AddEdge(u, v, type.e);
            children.push_back(std::move(child));
          }
        }
      }
    }

    std::vector<std::string> codes(children.size());
    if (config_.num_threads > 1 && children.size() > 16) {
      pool.ParallelFor(children.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          codes[i] = CanonicalCode(children[i]);
        }
      });
    } else {
      for (size_t i = 0; i < children.size(); ++i) {
        codes[i] = CanonicalCode(children[i]);
      }
    }
    level_candidates.clear();
    for (size_t i = 0; i < children.size(); ++i) {
      if (seen_codes.insert(std::move(codes[i])).second) {
        level_candidates.push_back(std::move(children[i]));
      }
    }

    current = evaluate_batch(level_candidates);
    for (const MinedPattern& m : current) result.frequent.push_back(m);
  }

  result.seconds = total_timer.Seconds();
  return result;
}

}  // namespace psi::fsm

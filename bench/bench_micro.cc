// Micro-benchmarks (google-benchmark) for the hot primitives: signature
// construction, satisfaction tests, satisfiability scoring, signature
// hashing, the batched candidate kernels, Random Forest inference, per-node
// PSI evaluation, and plan generation.
//
// After the google-benchmark run, main() times the scalar vs batched
// candidate pipeline directly and writes machine-readable results to
// BENCH_candidates.json (override the path with PSI_BENCH_JSON).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>

#include <benchmark/benchmark.h>

#include "core/prediction_cache.h"
#include "core/query_context.h"
#include "graph/datasets.h"
#include "graph/query_extractor.h"
#include "match/candidates.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "ml/random_forest.h"
#include "signature/builders.h"
#include "signature/kernels.h"
#include "signature/sparse_requirement.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace {

using namespace psi;

const graph::Graph& BenchGraph() {
  static const graph::Graph* g = new graph::Graph(
      graph::MakeDataset(graph::Dataset::kYeast, 1.0, 42));
  return *g;
}

const signature::SignatureMatrix& BenchSigs(signature::Method method) {
  static const signature::SignatureMatrix* expl =
      new signature::SignatureMatrix(signature::BuildSignatures(
          BenchGraph(), signature::Method::kExploration, 2,
          BenchGraph().num_labels()));
  static const signature::SignatureMatrix* matr =
      new signature::SignatureMatrix(signature::BuildSignatures(
          BenchGraph(), signature::Method::kMatrix, 2,
          BenchGraph().num_labels()));
  return method == signature::Method::kExploration ? *expl : *matr;
}

void BM_BuildExplorationSignatures(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  for (auto _ : state) {
    auto sigs = signature::BuildExplorationSignatures(
        g, static_cast<uint32_t>(state.range(0)), g.num_labels());
    benchmark::DoNotOptimize(sigs.row(0).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_BuildExplorationSignatures)->Arg(1)->Arg(2)->Arg(3);

void BM_BuildMatrixSignatures(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  for (auto _ : state) {
    auto sigs = signature::BuildMatrixSignatures(
        g, static_cast<uint32_t>(state.range(0)), g.num_labels());
    benchmark::DoNotOptimize(sigs.row(0).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_BuildMatrixSignatures)->Arg(1)->Arg(2)->Arg(3);

void BM_Satisfies(benchmark::State& state) {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  size_t i = 0;
  for (auto _ : state) {
    const auto a = sigs.row(i % sigs.num_rows());
    const auto b = sigs.row((i * 7 + 1) % sigs.num_rows());
    benchmark::DoNotOptimize(signature::Satisfies(a, b));
    ++i;
  }
}
BENCHMARK(BM_Satisfies);

void BM_SatisfiabilityScore(benchmark::State& state) {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  size_t i = 0;
  for (auto _ : state) {
    const auto a = sigs.row(i % sigs.num_rows());
    const auto b = sigs.row((i * 13 + 3) % sigs.num_rows());
    benchmark::DoNotOptimize(signature::SatisfiabilityScore(a, b));
    ++i;
  }
}
BENCHMARK(BM_SatisfiabilityScore);

void BM_HashSignature(benchmark::State& state) {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        signature::HashSignature(sigs.row(i % sigs.num_rows())));
    ++i;
  }
}
BENCHMARK(BM_HashSignature);

void BM_RowHash(benchmark::State& state) {
  // Memoized counterpart of BM_HashSignature: steady-state cache-hit cost.
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sigs.RowHash(i % sigs.num_rows()));
    ++i;
  }
}
BENCHMARK(BM_RowHash);

/// Shared input of the candidate-pipeline benches: one realistic sparse
/// query requirement plus a large shuffled candidate pool (ids repeat once
/// past the graph size — each id is still an independent row sweep).
struct CandidateWorkload {
  std::vector<float> required;
  signature::SparseRequirement req;
  std::vector<graph::NodeId> pool;
};

const CandidateWorkload& BenchWorkload() {
  static const CandidateWorkload* w = [] {
    auto* work = new CandidateWorkload();
    const graph::Graph& g = BenchGraph();
    graph::QueryExtractor extractor(g);
    util::Rng rng(13);
    const graph::QueryGraph q = extractor.Extract(5, rng);
    const auto qs = signature::BuildSignatures(
        q, signature::Method::kMatrix, 2, g.num_labels());
    const auto row = qs.row(q.pivot());
    work->required.assign(row.begin(), row.end());
    work->req.Assign(work->required);
    work->pool.resize(1 << 16);
    for (auto& c : work->pool) {
      c = static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    }
    return work;
  }();
  return *w;
}

std::vector<graph::NodeId> WorkloadSlice(size_t n) {
  const auto& pool = BenchWorkload().pool;
  return {pool.begin(), pool.begin() + std::min(n, pool.size())};
}

/// Pre-pipeline reference: dense O(L) satisfaction test per candidate.
void ScalarFilter(const signature::SignatureMatrix& sigs,
                  std::span<const float> required,
                  std::span<const graph::NodeId> candidates,
                  std::vector<graph::NodeId>& kept) {
  kept.clear();
  for (const graph::NodeId c : candidates) {
    if (signature::Satisfies(sigs.row(c), required)) kept.push_back(c);
  }
}

/// Pre-pipeline reference: dense per-candidate score + stable sort.
void ScalarRank(const signature::SignatureMatrix& sigs,
                std::span<const float> required,
                std::vector<graph::NodeId>& candidates,
                std::vector<float>& scores, std::vector<uint32_t>& order,
                std::vector<graph::NodeId>& tmp) {
  scores.resize(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = static_cast<float>(
        signature::SatisfiabilityScore(sigs.row(candidates[i]), required));
  }
  order.resize(candidates.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  tmp.resize(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) tmp[i] = candidates[order[i]];
  candidates.swap(tmp);
}

void BM_FilterCandidates(benchmark::State& state) {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  const auto& w = BenchWorkload();
  const auto list = WorkloadSlice(static_cast<size_t>(state.range(0)));
  const bool batched = state.range(1) == 1;
  std::vector<graph::NodeId> buf;
  for (auto _ : state) {
    if (batched) {
      buf.assign(list.begin(), list.end());
      signature::FilterCandidates(sigs, w.req, buf);
    } else {
      ScalarFilter(sigs, w.required, list, buf);
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(list.size()));
  state.SetLabel(batched ? "batched" : "scalar");
}
BENCHMARK(BM_FilterCandidates)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});

void BM_ScoreAndRank(benchmark::State& state) {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  const auto& w = BenchWorkload();
  const auto list = WorkloadSlice(static_cast<size_t>(state.range(0)));
  const bool batched = state.range(1) == 1;
  std::vector<graph::NodeId> buf;
  std::vector<float> scores;
  std::vector<uint32_t> order;
  std::vector<graph::NodeId> tmp;
  signature::RankScratch scratch;
  for (auto _ : state) {
    buf.assign(list.begin(), list.end());
    if (batched) {
      signature::ScoreAndRank(sigs, w.req, buf, scratch);
    } else {
      ScalarRank(sigs, w.required, buf, scores, order, tmp);
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(list.size()));
  state.SetLabel(batched ? "batched" : "scalar");
}
BENCHMARK(BM_ScoreAndRank)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});

void BM_PredictionCacheLookup(benchmark::State& state) {
  // Warm-cache lookups on the path that carries the cache.lookup.* fault
  // hooks. Comparing an injection-ON build (sites disarmed — the hook is
  // one relaxed atomic load) against an -DPSI_ENABLE_FAULT_INJECTION=OFF
  // build (hooks compiled out) bounds the chaos layer's hot-path cost.
  util::FaultInjector::Global().DisarmAll();
  core::PredictionCache cache;
  constexpr uint64_t kEntries = 4096;
  for (uint64_t h = 0; h < kEntries; ++h) {
    cache.Insert(h * 0x9e3779b97f4a7c15ULL,
                 {.valid = h % 2 == 0,
                  .plan_index = static_cast<uint16_t>(h % 8),
                  .steps = 1000});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Lookup((i % kEntries) * 0x9e3779b97f4a7c15ULL));
    ++i;
  }
  state.SetLabel(PSI_FAULT_INJECTION_ENABLED ? "hooks-on(disarmed)"
                                             : "hooks-off");
}
BENCHMARK(BM_PredictionCacheLookup);

void BM_RandomForestPredict(benchmark::State& state) {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  ml::Dataset data(sigs.num_labels());
  util::Rng rng(1);
  for (size_t i = 0; i < 500; ++i) {
    data.AddExample(sigs.row(i % sigs.num_rows()),
                    static_cast<int32_t>(rng.NextBounded(2)));
  }
  ml::RandomForest forest;
  ml::ForestConfig config;
  config.num_trees = static_cast<size_t>(state.range(0));
  forest.Train(data, 2, config, rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(sigs.row(i % sigs.num_rows())));
    ++i;
  }
}
BENCHMARK(BM_RandomForestPredict)->Arg(10)->Arg(20)->Arg(50);

void BM_PsiEvaluateNode(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  graph::QueryExtractor extractor(g);
  util::Rng rng(7);
  const graph::QueryGraph q =
      extractor.Extract(static_cast<size_t>(state.range(0)), rng);
  if (q.num_nodes() == 0) {
    state.SkipWithError("query extraction failed");
    return;
  }
  const core::QueryContext ctx = core::PrepareQuery(g, sigs, q);
  match::PsiEvaluator evaluator(g, sigs);
  evaluator.BindQuery(q, ctx.query_sigs,
                      match::MakeHeuristicPlan(q, g, q.pivot()));
  const auto mode = state.range(1) == 0 ? match::PsiMode::kOptimistic
                                        : match::PsiMode::kPessimistic;
  match::PsiEvaluator::Options options;
  options.mode = mode;
  size_t i = 0;
  for (auto _ : state) {
    const graph::NodeId u = ctx.candidates[i % ctx.candidates.size()];
    benchmark::DoNotOptimize(evaluator.EvaluateNode(u, options));
    ++i;
  }
}
BENCHMARK(BM_PsiEvaluateNode)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({6, 0})
    ->Args({6, 1});

void BM_MakeHeuristicPlan(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  graph::QueryExtractor extractor(g);
  util::Rng rng(9);
  const graph::QueryGraph q = extractor.Extract(8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::MakeHeuristicPlan(q, g, q.pivot()).order.data());
  }
}
BENCHMARK(BM_MakeHeuristicPlan);

void BM_ExtractPivotCandidates(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  graph::QueryExtractor extractor(g);
  util::Rng rng(11);
  const graph::QueryGraph q = extractor.Extract(5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::ExtractPivotCandidates(g, q).data());
  }
}
BENCHMARK(BM_ExtractPivotCandidates);

/// Best-of-R wall-clock ns/candidate for one closure over a list of size n.
template <typename Fn>
double TimeNsPerCandidate(size_t n, Fn&& fn) {
  constexpr int kReps = 5;
  // Scale inner iterations so each rep does a comparable amount of work
  // regardless of list size.
  const int iters = static_cast<int>(std::max<size_t>(3, (1 << 21) / n));
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    for (int i = 0; i < iters; ++i) fn();
    const double ns =
        timer.Seconds() * 1e9 / (static_cast<double>(iters) * n);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

/// Times the scalar (dense per-candidate) vs batched (sparse bulk kernel)
/// candidate pipeline and writes BENCH_candidates.json — the PR's
/// machine-checkable speedup artifact.
void WriteCandidateKernelReport() {
  const auto& sigs = BenchSigs(signature::Method::kMatrix);
  const auto& w = BenchWorkload();
  const char* env = std::getenv("PSI_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_candidates.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"candidate_pipeline\",\n"
      << "  \"graph\": \"yeast\",\n"
      << "  \"num_labels\": " << sigs.num_labels() << ",\n"
      << "  \"requirement_nnz\": " << w.req.nnz() << ",\n"
      << "  \"avx2\": " << (signature::KernelsUseAvx2() ? "true" : "false")
      << ",\n  \"sizes\": [";
  bool first = true;
  for (const size_t n : {size_t{1024}, size_t{4096}, size_t{16384}}) {
    const auto list = WorkloadSlice(n);
    std::vector<graph::NodeId> buf;
    std::vector<float> scores;
    std::vector<uint32_t> order;
    std::vector<graph::NodeId> tmp;
    signature::RankScratch scratch;

    const double filter_scalar = TimeNsPerCandidate(
        n, [&] { ScalarFilter(sigs, w.required, list, buf); });
    const double filter_batched = TimeNsPerCandidate(n, [&] {
      buf.assign(list.begin(), list.end());
      signature::FilterCandidates(sigs, w.req, buf);
    });
    const double rank_scalar = TimeNsPerCandidate(n, [&] {
      buf.assign(list.begin(), list.end());
      ScalarRank(sigs, w.required, buf, scores, order, tmp);
    });
    const double rank_batched = TimeNsPerCandidate(n, [&] {
      buf.assign(list.begin(), list.end());
      signature::ScoreAndRank(sigs, w.req, buf, scratch);
    });

    out << (first ? "" : ",") << "\n    {\"candidates\": " << n
        << ",\n     \"filter\": {\"scalar_ns_per_candidate\": "
        << filter_scalar
        << ", \"batched_ns_per_candidate\": " << filter_batched
        << ", \"speedup\": " << filter_scalar / filter_batched << "},\n"
        << "     \"rank\": {\"scalar_ns_per_candidate\": " << rank_scalar
        << ", \"batched_ns_per_candidate\": " << rank_batched
        << ", \"speedup\": " << rank_scalar / rank_batched << "}}";
    first = false;
  }
  out << "\n  ]\n}\n";
  printf("wrote %s (avx2=%d)\n", path.c_str(),
         signature::KernelsUseAvx2() ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteCandidateKernelReport();
  return 0;
}

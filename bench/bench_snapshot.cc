// Snapshot + compact-signature study (extension; DESIGN.md §16): how much
// a prebuilt .psnap buys over rebuilding at load time, what the 8-bit
// compact codes cost and save, and what the quantized prescreen does to
// bulk filter throughput. Prints paper-style rows and writes a
// machine-readable BENCH_snapshot.json (override the path with
// PSI_BENCH_SNAPSHOT_JSON; the scratch .psnap path with PSI_BENCH_PSNAP).
//
// Three phases:
//   1. cold start — what `!load graph.lg` pays (text parse + signature
//      build + hash prewarm + compact codes) vs what `!load graph.psnap`
//      pays (mmap + validation), plus the graph-already-resident rebuild
//      for reference;
//   2. memory — heap bytes the signature state owns when built in-process
//      vs served zero-copy out of the mapping, plus VmRSS deltas;
//   3. filter throughput — FilterCandidates with the compact prescreen
//      attached vs the float-only path, same kept sets required, in a
//      selective regime (most candidates rejected, the prescreen's case)
//      and a permissive one (most admitted, its worst case).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/graph_io.h"
#include "service/snapshot_io.h"
#include "signature/builders.h"
#include "signature/kernels.h"
#include "signature/sparse_requirement.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {
using namespace psi;

/// Resident set size in KiB from /proc/self/status, 0 if unreadable.
size_t VmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      size_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0;
}

/// One full in-memory signature build as the catalog performs it on
/// `!load`: floats, memoized row hashes, compact codes.
signature::SignatureMatrix RebuildSignatures(const graph::Graph& g,
                                             uint32_t depth) {
  signature::SignatureMatrix sigs = signature::BuildSignatures(
      g, signature::Method::kMatrix, depth, g.num_labels());
  sigs.MemoizeRowHashes(0, sigs.num_rows());
  sigs.BuildCompact();
  return sigs;
}

}  // namespace

int main() {
  const int scale = bench::BenchScale();
  const uint32_t depth = 2;
  const size_t num_queries = 40 * static_cast<size_t>(scale);
  const size_t query_size = 6;

  bench::PrintBanner(
      "Snapshots: .psnap mmap load vs rebuild, compact prescreen",
      "(extension; not a paper table)",
      "YouTube stand-in, depth-" + std::to_string(depth) +
          " matrix signatures, " + std::to_string(num_queries) +
          " filter requirements.");

  const graph::Graph g =
      bench::MakeStandIn(graph::Dataset::kYouTube, 1.0 * scale);
  std::cout << "YouTube stand-in: " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges, " << g.num_labels() << " labels\n\n";

  const char* psnap_env = std::getenv("PSI_BENCH_PSNAP");
  const std::string psnap_path =
      psnap_env != nullptr ? psnap_env : "bench_snapshot.psnap";
  const std::string lg_path = psnap_path + ".lg";

  // --- Phase 1+2: rebuild vs save/load, heap + RSS ------------------------
  const size_t rss_before_build = VmRssKb();
  double rebuild_seconds = 0.0;
  double save_seconds = 0.0;
  size_t rss_after_build = 0;
  uint64_t file_bytes = 0;
  {
    util::WallTimer rebuild_timer;
    signature::SignatureMatrix sigs = RebuildSignatures(g, depth);
    rebuild_seconds = rebuild_timer.Seconds();
    rss_after_build = VmRssKb();

    util::WallTimer save_timer;
    const auto status = service::SaveSnapshotFile(g, sigs, psnap_path);
    save_seconds = save_timer.Seconds();
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::ifstream file(psnap_path, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<uint64_t>(file.tellg());

    std::cout << "rebuild (build+prewarm+compact): " << rebuild_seconds
              << " s\n"
              << "save " << psnap_path << ": " << save_seconds << " s, "
              << file_bytes << " bytes\n";
  }

  // Cold start from .lg: the admin `!load NAME graph.lg` path — parse the
  // text format, then the same in-memory build.
  if (const auto status = graph::SaveLgFile(g, lg_path); !status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  util::WallTimer lg_timer;
  double cold_lg_seconds = 0.0;
  {
    auto reloaded = graph::LoadLgFile(lg_path);
    if (!reloaded.ok()) {
      std::cerr << reloaded.status().ToString() << "\n";
      return 1;
    }
    const signature::SignatureMatrix cold_sigs =
        RebuildSignatures(reloaded.value(), depth);
    cold_lg_seconds = lg_timer.Seconds();
  }

  const size_t rss_before_load = VmRssKb();
  util::WallTimer load_timer;
  auto loaded = service::LoadSnapshotFile(psnap_path);
  const double load_seconds = load_timer.Seconds();
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  const size_t rss_after_load = VmRssKb();

  const size_t n = g.num_nodes();
  const size_t labels = g.num_labels();
  // Heap bytes the signature state owns in each serving mode (the mapping
  // behind the zero-copy mode is clean file-backed page cache — evictable
  // and shared across serving processes, unlike the heap).
  const uint64_t built_heap_bytes =
      static_cast<uint64_t>(n) * labels * sizeof(float)  // floats
      + static_cast<uint64_t>(n) * labels                // compact codes
      + static_cast<uint64_t>(n) * sizeof(uint64_t);     // row hashes
  const uint64_t mapped_heap_bytes =
      static_cast<uint64_t>(n) * sizeof(uint64_t);  // adopted row hashes

  util::TablePrinter cold_table(
      {"cold-start path", "time", "sig heap bytes", "RSS delta KiB"});
  cold_table.AddRow({"parse .lg + rebuild",
                     bench::TimeCell(cold_lg_seconds, false, 0),
                     std::to_string(built_heap_bytes), "-"});
  cold_table.AddRow({"rebuild (graph resident)",
                     bench::TimeCell(rebuild_seconds, false, 0),
                     std::to_string(built_heap_bytes),
                     std::to_string(rss_after_build > rss_before_build
                                        ? rss_after_build - rss_before_build
                                        : 0)});
  cold_table.AddRow({"mmap .psnap",
                     bench::TimeCell(load_seconds, false, 0),
                     std::to_string(mapped_heap_bytes),
                     std::to_string(rss_after_load > rss_before_load
                                        ? rss_after_load - rss_before_load
                                        : 0)});
  cold_table.Print(std::cout);
  const double load_speedup =
      load_seconds > 0.0 ? cold_lg_seconds / load_seconds : 0.0;
  const double rebuild_speedup =
      load_seconds > 0.0 ? rebuild_seconds / load_seconds : 0.0;
  const double heap_reduction =
      mapped_heap_bytes > 0
          ? static_cast<double>(built_heap_bytes) /
                static_cast<double>(mapped_heap_bytes)
          : 0.0;
  std::printf(
      "cold load speedup: %.1fx vs .lg, %.1fx vs resident rebuild; "
      "signature heap reduction: %.1fx\n\n",
      load_speedup, rebuild_speedup, heap_reduction);

  // --- Phase 3: filter throughput, compact prescreen vs float-only --------
  // Const view: the mutable row() accessors require owned storage, and a
  // loaded matrix serves its floats straight out of the mapping.
  const signature::SignatureMatrix& sigs = loaded.value().sigs;
  signature::SignatureMatrix float_only = sigs;  // copy drops compact codes

  // Permissive regime: extracted query pivots reach few labels with small
  // weights, so most data rows satisfy them — the prescreen rejects little
  // and its byte sweep is pure overhead. Selective regime: a data node's
  // own row as the requirement ("at least as label-rich as v") rejects
  // almost everything, so the prescreen spares almost every float-row
  // touch. Real workloads sit between the two.
  std::vector<signature::SparseRequirement> permissive(num_queries);
  const auto workload = bench::MakeWorkload(g, query_size, num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const graph::QueryGraph& q = workload[i % workload.size()];
    const auto qsigs = signature::BuildSignatures(
        q, signature::Method::kMatrix, depth, labels);
    permissive[i].Assign(qsigs.row(q.pivot()));
  }
  std::vector<signature::SparseRequirement> selective(num_queries);
  util::Rng pick(bench::kBenchSeed ^ 0x5e1ec71feULL);
  for (size_t i = 0; i < num_queries; ++i) {
    selective[i].Assign(sigs.row(pick.NextBounded(n)));
  }
  std::vector<graph::NodeId> all_nodes(n);
  for (size_t v = 0; v < n; ++v) all_nodes[v] = static_cast<graph::NodeId>(v);

  auto run_filter = [&](const signature::SignatureMatrix& m,
                        const std::vector<signature::SparseRequirement>& reqs,
                        uint64_t* kept) {
    std::vector<graph::NodeId> candidates;
    util::WallTimer timer;
    *kept = 0;
    for (const auto& req : reqs) {
      candidates = all_nodes;
      signature::FilterCandidates(m, req, candidates);
      *kept += candidates.size();
    }
    return timer.Seconds();
  };
  const double rows_swept =
      static_cast<double>(n) * static_cast<double>(num_queries);
  util::TablePrinter filter_table(
      {"regime", "float only", "compact prescreen", "speedup", "kept"});
  struct FilterPoint {
    const char* regime;
    double float_s = 0.0;
    double compact_s = 0.0;
    uint64_t kept = 0;
  };
  std::vector<FilterPoint> filter_points;
  for (const auto& [regime, reqs] :
       {std::pair<const char*,
                  const std::vector<signature::SparseRequirement>&>(
            "selective", selective),
        {"permissive", permissive}}) {
    uint64_t kept_float = 0, kept_compact = 0;
    FilterPoint point;
    point.regime = regime;
    point.float_s = run_filter(float_only, reqs, &kept_float);
    point.compact_s = run_filter(sigs, reqs, &kept_compact);
    point.kept = kept_float;
    if (kept_float != kept_compact) {
      std::cerr << "BUG: compact prescreen changed the kept set ("
                << kept_float << " vs " << kept_compact << ")\n";
      return 1;
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  point.compact_s > 0.0 ? point.float_s / point.compact_s
                                        : 0.0);
    filter_table.AddRow({regime, bench::TimeCell(point.float_s, false, 0),
                         bench::TimeCell(point.compact_s, false, 0), speedup,
                         std::to_string(point.kept)});
    filter_points.push_back(point);
  }
  filter_table.Print(std::cout);
  std::printf("%.0f Mrows swept per path per regime; kept sets identical\n",
              rows_swept / 1e6);

  // --- JSON artifact ------------------------------------------------------
  const char* env = std::getenv("PSI_BENCH_SNAPSHOT_JSON");
  const std::string json_path = env != nullptr ? env : "BENCH_snapshot.json";
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"snapshot\",\n"
        << "  \"graph\": \"youtube_standin\",\n"
        << "  \"num_nodes\": " << n << ",\n"
        << "  \"num_edges\": " << g.num_edges() << ",\n"
        << "  \"num_labels\": " << labels << ",\n"
        << "  \"depth\": " << depth << ",\n"
        << "  \"cold_lg_s\": " << cold_lg_seconds << ",\n"
        << "  \"rebuild_s\": " << rebuild_seconds << ",\n"
        << "  \"save_s\": " << save_seconds << ",\n"
        << "  \"load_s\": " << load_seconds << ",\n"
        << "  \"load_speedup_vs_lg\": " << load_speedup << ",\n"
        << "  \"load_speedup_vs_rebuild\": " << rebuild_speedup << ",\n"
        << "  \"psnap_bytes\": " << file_bytes << ",\n"
        << "  \"built_sig_heap_bytes\": " << built_heap_bytes << ",\n"
        << "  \"mapped_sig_heap_bytes\": " << mapped_heap_bytes << ",\n"
        << "  \"sig_heap_reduction\": " << heap_reduction << ",\n"
        << "  \"filter_requirements\": " << num_queries << ",\n"
        << "  \"filter\": [";
    bool first = true;
    for (const FilterPoint& point : filter_points) {
      out << (first ? "" : ",") << "\n    {\"regime\": \"" << point.regime
          << "\", \"float_s\": " << point.float_s
          << ", \"compact_s\": " << point.compact_s << ", \"speedup\": "
          << (point.compact_s > 0.0 ? point.float_s / point.compact_s : 0.0)
          << ", \"kept\": " << point.kept << "}";
      first = false;
    }
    out << "\n  ]\n}\n";
  }
  std::cout << "\nWrote " << json_path << "\n";
  std::remove(psnap_path.c_str());
  std::remove(lg_path.c_str());
  return 0;
}

// psi_serve — in-process PSI query service front-end: answers a stream of
// newline-delimited pivoted queries (see service/workload.h for the line
// format) against a catalog of named graph snapshots, with bounded
// admission and per-request deadlines. No sockets: stdin/file in, stdout
// out.
//
//   psi_serve graph.lg --workers 8 < workload.txt
//   psi_serve --generate 100000,400000,8 --workload w.txt --deadline-ms 50
//   psi_generate --nodes 1000 ... && psi_serve graph.lg   # end-to-end
//
// Admin commands ride the same control stream, prefixed with '!'; queries
// before and after keep serving while a load builds in the background:
//
//   !load social graph2.lg       # background build + publish
//   !swap social gen:5000,20000,8,7   # hot-swap from a generator spec
//   !load social graph2.psnap    # mmap a prebuilt snapshot — no rebuild
//   !save social graph2.psnap    # persist a served graph as a .psnap
//   !retire social
//   !list
// Queries select a graph with the g= token: v=0,1 e=0-1 p=0 g=social

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "service/service.h"
#include "service/snapshot_io.h"
#include "service/workload.h"
#include "tools/tool_args.h"
#include "util/random.h"

namespace {

using namespace psi;

void Usage() {
  std::cerr <<
      "Usage: psi_serve <graph.lg> [options]\n"
      "       psi_serve --generate N,M,L [options]   (Erdos-Renyi stand-in)\n"
      "  --workload FILE   request lines (default: stdin; '-' = stdin)\n"
      "  --workers N       concurrent query executions (default 4)\n"
      "  --queue N         admission queue bound (default 256)\n"
      "  --deadline-ms D   default per-request deadline (default: none)\n"
      "  --depth D         signature depth (default 2)\n"
      "  --seed S          RNG seed for --generate (default 42)\n"
      "  --search-threads N  work-stealing workers per query evaluation\n"
      "                    (default 1 = sequential)\n"
      "  --quiet           suppress per-request lines, print stats only\n"
      "\n"
      "Admin commands (inline in the request stream):\n"
      "  !load NAME SRC    build+publish graph SRC (file or gen:N,M[,L[,S]]);\n"
      "                    a .psnap SRC is mmapped and published without\n"
      "                    rebuilding (psi_snapshot build)\n"
      "  !swap NAME SRC    alias for !load — hot-swaps a served name\n"
      "  !save NAME FILE   write served graph NAME as a .psnap snapshot\n"
      "  !retire NAME      stop serving NAME (in-flight requests finish)\n"
      "  !list             print catalog snapshots and pin gauges\n"
      "\n"
      "Per-request output: id=<id> status=<status> valid=<n> latency_ms=<t> "
      "snapshot=<v>\n";
}

void PrintResponse(const service::QueryResponse& r) {
  std::cout << "id=" << r.id << " status=" << RequestStatusName(r.status)
            << " valid=" << r.valid_nodes.size()
            << " latency_ms=" << r.latency_seconds * 1e3
            << " snapshot=" << r.snapshot_version << "\n";
}

/// Loads a graph for an admin command: either a .lg file path or an
/// inline generator spec "gen:N,M[,L[,seed]]".
util::Result<graph::Graph> LoadAdminGraph(const std::string& source) {
  if (source.rfind("gen:", 0) == 0) {
    size_t nodes = 0, edges = 0, labels = 8;
    unsigned long long seed = 42;
    if (std::sscanf(source.c_str(), "gen:%zu,%zu,%zu,%llu", &nodes, &edges,
                    &labels, &seed) < 2) {
      return util::Status::InvalidArgument("bad generator spec '" + source +
                                           "' (want gen:N,M[,L[,seed]])");
    }
    util::Rng rng(seed);
    graph::LabelConfig label_config;
    label_config.num_labels = labels;
    return graph::RelabelWithHomophily(
        graph::ErdosRenyi(nodes, edges, label_config, rng), 0.6, 2, rng);
  }
  return graph::LoadLgFile(source);
}

void PrintLoaded(const std::string& name, const service::GraphSnapshot& s) {
  std::cerr << "loaded '" << name << "' version=" << s.version() << " ("
            << s.graph().num_nodes() << " nodes, built in "
            << s.timings().signature_build_seconds << " s)\n";
}

/// The serve loop proper: the control stream, admin commands and response
/// windowing. Returns the process exit code.
int ServeLoop(service::PsiService& psi_service, std::istream& in, bool quiet,
              size_t window, uint32_t depth) {
  // Responses print in submission order; the window keeps enough requests
  // in flight to saturate the workers without holding every future at once.
  std::deque<std::future<service::QueryResponse>> pending;
  auto drain_one = [&]() {
    service::QueryResponse r = pending.front().get();
    pending.pop_front();
    if (!quiet) PrintResponse(r);
  };

  // Background loads in flight: polled (non-blocking) every control-stream
  // turn so completions print promptly, drained (blocking) before exit.
  // Admin builds stay serial: they run on a background std::async thread,
  // not on the serving pool.
  service::SnapshotBuildOptions admin_build;
  admin_build.signature_depth = depth;
  using LoadFuture = decltype(psi_service.catalog().BuildAndPublishAsync(
      std::string(), graph::Graph(), admin_build));
  std::vector<std::pair<std::string, LoadFuture>> pending_loads;
  auto poll_loads = [&](bool block) {
    for (auto it = pending_loads.begin(); it != pending_loads.end();) {
      if (!block && it->second.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        ++it;
        continue;
      }
      auto result = it->second.get();
      if (result.ok()) {
        PrintLoaded(it->first, *result.value());
      } else {
        std::cerr << "load '" << it->first
                  << "' failed: " << result.status().ToString() << "\n";
      }
      it = pending_loads.erase(it);
    }
  };
  auto is_psnap = [](const std::string& source) {
    constexpr std::string_view kExt = ".psnap";
    return source.size() >= kExt.size() &&
           source.compare(source.size() - kExt.size(), kExt.size(), kExt) == 0;
  };
  auto handle_admin = [&](const std::string& command) {
    std::istringstream tokens(command);
    std::string op, name, source;
    tokens >> op >> name >> source;
    if ((op == "load" || op == "swap") && !name.empty() && !source.empty() &&
        is_psnap(source)) {
      // A prebuilt snapshot publishes synchronously: the load is mmap +
      // validation, not a signature rebuild, so there is no build to hide
      // in the background (DESIGN.md §16.3).
      auto published = psi_service.catalog().PublishFromFile(name, source);
      if (!published.ok()) {
        std::cerr << "!" << op << ": " << published.status().ToString()
                  << "\n";
        return false;
      }
      const service::GraphSnapshot& s = *published.value();
      std::cerr << "loaded '" << name << "' version=" << s.version() << " ("
                << s.graph().num_nodes() << " nodes, mapped in "
                << s.timings().load_seconds << " s)\n";
      return true;
    }
    if (op == "save" && !name.empty() && !source.empty()) {
      const auto snapshot = psi_service.catalog().Resolve(name);
      if (snapshot == nullptr) {
        std::cerr << "!save: unknown graph '" << name << "'\n";
        return false;
      }
      const auto status = service::SaveSnapshotFile(
          snapshot->graph(), snapshot->signatures(), source);
      if (!status.ok()) {
        std::cerr << "!save: " << status.ToString() << "\n";
        return false;
      }
      std::cerr << "saved '" << name << "' version=" << snapshot->version()
                << " to " << source << "\n";
      return true;
    }
    if ((op == "load" || op == "swap") && !name.empty() && !source.empty()) {
      auto loaded = LoadAdminGraph(source);
      if (!loaded.ok()) {
        std::cerr << "!" << op << ": " << loaded.status().ToString() << "\n";
        return false;
      }
      pending_loads.emplace_back(
          name, psi_service.catalog().BuildAndPublishAsync(
                    name, std::move(loaded).value(), admin_build));
      std::cerr << "building '" << name << "' in background...\n";
      return true;
    }
    if (op == "retire" && !name.empty()) {
      if (psi_service.catalog().Retire(name)) {
        std::cerr << "retired '" << name << "'\n";
      } else {
        std::cerr << "!retire: unknown graph '" << name << "'\n";
      }
      return true;
    }
    if (op == "list") {
      poll_loads(/*block=*/false);
      for (const auto& e : psi_service.catalog().List()) {
        std::cerr << (e.current ? "current" : "retired") << " " << e.name
                  << " v" << e.version << " pins=" << e.pins
                  << " nodes=" << e.num_nodes << " edges=" << e.num_edges
                  << " labels=" << e.num_labels
                  << " build_s=" << e.timings.signature_build_seconds << "\n";
      }
      return true;
    }
    std::cerr << "bad admin command: !" << command << "\n";
    return false;
  };

  std::string line;
  size_t line_number = 0;
  size_t parse_errors = 0;
  uint64_t next_id = 1;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    poll_loads(/*block=*/false);
    if (line[start] == '!') {
      if (!handle_admin(line.substr(start + 1))) ++parse_errors;
      continue;
    }
    auto parsed = service::ParseWorkloadLine(line);
    if (!parsed.ok()) {
      std::cerr << "line " << line_number << ": "
                << parsed.status().ToString() << "\n";
      ++parse_errors;
      continue;
    }
    service::QueryRequest request = std::move(parsed).value();
    if (request.id == 0) request.id = next_id;
    next_id = std::max(next_id, request.id) + 1;
    const uint64_t id = request.id;
    auto future = psi_service.Submit(std::move(request));
    if (!future.has_value()) {
      if (!quiet) {
        std::cout << "id=" << id << " status=rejected valid=0 latency_ms=0\n";
      }
      continue;
    }
    pending.push_back(std::move(*future));
    while (pending.size() >= window) drain_one();
  }
  while (!pending.empty()) drain_one();
  poll_loads(/*block=*/true);

  // --- Stats --------------------------------------------------------------
  const service::ServiceStats stats = psi_service.Stats();
  std::cerr << stats.metrics.ToString() << "\n";
  std::cerr << "cache lookups: hits=" << stats.cache.hits
            << " misses=" << stats.cache.misses
            << " inserts=" << stats.cache.inserts
            << " epoch_drops=" << stats.cache.epoch_drops << "\n";
  for (const auto& e : stats.snapshots) {
    std::cerr << "snapshot: " << (e.current ? "current" : "retired") << " "
              << e.name << " v" << e.version << " pins=" << e.pins
              << " nodes=" << e.num_nodes << "\n";
  }
  return parse_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgSpec arg_spec;
  arg_spec.switches = {"--quiet"};
  arg_spec.options = {"--generate",       "--workload", "--workers",
                      "--queue",          "--deadline-ms", "--depth",
                      "--seed",           "--search-threads"};
  arg_spec.max_positional = 1;
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, arg_spec);
  if (!args.ok()) {
    std::cerr << "psi_serve: " << args.error << "\n";
    Usage();
    return 2;
  }
  const std::string graph_path =
      args.positional.empty() ? std::string() : args.positional[0];
  auto get = [&](const std::string& key, const std::string& fallback) {
    return args.Get(key, fallback);
  };

  // --- Graph --------------------------------------------------------------
  graph::Graph g;
  if (args.Has("--generate")) {
    size_t nodes = 0, edges = 0, labels = 8;
    if (std::sscanf(get("--generate", "").c_str(), "%zu,%zu,%zu", &nodes,
                    &edges, &labels) < 2) {
      std::cerr << "bad --generate spec (want N,M[,L])\n";
      return 2;
    }
    util::Rng rng(std::strtoull(get("--seed", "42").c_str(), nullptr, 10));
    graph::LabelConfig label_config;
    label_config.num_labels = labels;
    g = graph::RelabelWithHomophily(
        graph::ErdosRenyi(nodes, edges, label_config, rng), 0.6, 2, rng);
  } else if (!graph_path.empty()) {
    auto loaded = graph::LoadLgFile(graph_path);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    g = std::move(loaded).value();
  } else {
    Usage();
    return 2;
  }
  std::cerr << "Graph: " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges, " << g.num_labels() << " labels\n";

  // --- Workload stream ----------------------------------------------------
  const std::string workload_path = get("--workload", "-");
  std::ifstream file;
  if (workload_path != "-") {
    file.open(workload_path);
    if (!file) {
      std::cerr << "cannot open workload file " << workload_path << "\n";
      return 1;
    }
  }
  std::istream& in = workload_path == "-" ? std::cin : file;
  const bool quiet = args.Has("--quiet");

  const size_t num_workers =
      std::strtoull(get("--workers", "4").c_str(), nullptr, 10);
  const size_t max_queue_depth =
      std::strtoull(get("--queue", "256").c_str(), nullptr, 10);
  const double deadline_seconds =
      std::atof(get("--deadline-ms", "0").c_str()) / 1e3;
  const uint32_t depth = static_cast<uint32_t>(
      std::strtoul(get("--depth", "2").c_str(), nullptr, 10));
  const size_t window = num_workers * 4 + max_queue_depth;

  // --- Search-core knobs (DESIGN.md §14) ---------------------------------
  size_t search_threads = 1;
  if (args.Has("--search-threads")) {
    const std::string raw = get("--search-threads", "1");
    char* end = nullptr;
    search_threads = std::strtoull(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0' || search_threads == 0) {
      std::cerr << "psi_serve: --search-threads wants a positive integer, "
                   "got '" << raw << "'\n";
      return 2;
    }
  }

  // --- Service ------------------------------------------------------------
  service::ServiceOptions options;
  options.num_workers = num_workers;
  options.max_queue_depth = max_queue_depth;
  options.default_deadline_seconds = deadline_seconds;
  options.engine.signature_depth = depth;
  options.search_threads = search_threads;
  service::PsiService psi_service(g, options);
  std::cerr << "Service: " << num_workers << " workers, queue bound "
            << max_queue_depth << ", signatures built in "
            << psi_service.Stats().signature_build_seconds << " s\n";
  return ServeLoop(psi_service, in, quiet, window, depth);
}

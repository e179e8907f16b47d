// psi_generate — emit synthetic labeled graphs (and optional query
// workloads) in .lg format, either from the paper's dataset stand-ins or
// from the raw generators.
//
//   psi_generate --out g.lg --dataset human --scale 0.5 --seed 7
//   psi_generate --out g.lg --generator chunglu --nodes 100000
//       --edges 800000 --labels 25 --power 2.1 --homophily 0.4
//   psi_generate --out g.lg --dataset cora
//       --queries-out q.lg --query-size 6 --query-count 100

#include <unistd.h>

#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/query_extractor.h"
#include "tools/tool_args.h"

namespace {

using namespace psi;

void Usage() {
  std::cerr <<
      "Usage: psi_generate --out FILE (--dataset NAME | --generator KIND)\n"
      "  Prints the target node and edge counts first, and refuses to build\n"
      "  (exit 1) when the estimated peak memory exceeds physical memory.\n"
      "  --dataset NAME     yeast|cora|human|youtube|twitter|weibo\n"
      "  --scale X          dataset scale in (0,1], default 1.0\n"
      "  --generator KIND   er|ba|chunglu|rmat\n"
      "  --nodes N --edges M --labels L (generator mode)\n"
      "  --label-skew Z     Zipf exponent for node labels (default 0.8)\n"
      "  --edge-labels E    distinct edge labels (default 1)\n"
      "  --power B          Chung-Lu power-law exponent (default 2.1)\n"
      "  --ba-degree D      Barabasi-Albert edges per node (default 3)\n"
      "  --homophily H      label homophily in [0,1] (default 0)\n"
      "  --seed S           RNG seed (default 42)\n"
      "  --queries-out FILE also extract a query workload\n"
      "  --query-size N     nodes per query (default 5)\n"
      "  --query-count K    number of queries (default 100)\n";
}

/// Estimated peak bytes to generate a graph and write it out: the
/// generator's edge dedup set and edge list, then the CSR and its relabeled
/// copy. The per-edge rate is the peak RSS of `psi_generate --dataset weibo
/// --scale 0.01` (16,556 nodes, 3.69M edges: 273 MB, x86-64 Linux); the
/// per-node rate is an allowance for the node arrays, which that run is
/// too edge-heavy to measure.
double PeakBytes(size_t nodes, size_t edges) {
  constexpr double kBytesPerEdge = 78.0;
  constexpr double kBytesPerNode = 64.0;
  return kBytesPerEdge * static_cast<double>(edges) +
         kBytesPerNode * static_cast<double>(nodes);
}

/// Physical memory in bytes, or 0 when the system does not say.
double PhysicalMemoryBytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || page_size <= 0) return 0.0;
  return static_cast<double>(pages) * static_cast<double>(page_size);
}

double Gib(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  const tools::ArgSpec spec{
      /*switches=*/{},
      /*options=*/{"--out", "--dataset", "--scale", "--generator", "--nodes",
                   "--edges", "--labels", "--label-skew", "--edge-labels",
                   "--power", "--ba-degree", "--homophily", "--seed",
                   "--queries-out", "--query-size", "--query-count"},
      /*max_positional=*/0};
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, spec);
  if (!args.ok()) {
    std::cerr << "psi_generate: " << args.error << "\n";
    Usage();
    return 2;
  }
  auto get = [&](const std::string& key, const std::string& fallback) {
    return args.Get(key, fallback);
  };
  const std::string out = get("--out", "");
  if (out.empty()) {
    Usage();
    return 2;
  }
  const uint64_t seed = std::strtoull(get("--seed", "42").c_str(), nullptr, 10);

  // Each mode first settles the counts it will build, then `build` makes
  // the graph; nothing is allocated before the memory guard below.
  size_t target_nodes = 0;
  size_t target_edges = 0;
  std::function<graph::Graph()> build;
  if (args.Has("--dataset")) {
    const std::string name = get("--dataset", "");
    const std::map<std::string, graph::Dataset> datasets = {
        {"yeast", graph::Dataset::kYeast},
        {"cora", graph::Dataset::kCora},
        {"human", graph::Dataset::kHuman},
        {"youtube", graph::Dataset::kYouTube},
        {"twitter", graph::Dataset::kTwitter},
        {"weibo", graph::Dataset::kWeibo}};
    const auto it = datasets.find(name);
    if (it == datasets.end()) {
      std::cerr << "unknown dataset: " << name << "\n";
      return 2;
    }
    const double scale = std::atof(get("--scale", "1.0").c_str());
    if (!(scale > 0.0 && scale <= 1.0)) {
      std::cerr << "psi_generate: --scale must be in (0, 1]\n";
      return 2;
    }
    const graph::DatasetSize size = graph::ScaledDatasetSize(it->second, scale);
    target_nodes = size.nodes;
    target_edges = size.edges;
    build = [dataset = it->second, scale, seed] {
      return graph::MakeDataset(dataset, scale, seed);
    };
  } else if (args.Has("--generator")) {
    const std::string kind = get("--generator", "");
    const size_t nodes = std::strtoull(get("--nodes", "1000").c_str(),
                                       nullptr, 10);
    const size_t edges = std::strtoull(get("--edges", "5000").c_str(),
                                       nullptr, 10);
    graph::LabelConfig labels;
    labels.num_labels = std::strtoull(get("--labels", "8").c_str(),
                                      nullptr, 10);
    labels.zipf_exponent = std::atof(get("--label-skew", "0.8").c_str());
    labels.num_edge_labels =
        std::strtoull(get("--edge-labels", "1").c_str(), nullptr, 10);
    const size_t per_node =
        std::strtoull(get("--ba-degree", "3").c_str(), nullptr, 10);
    const double power = std::atof(get("--power", "2.1").c_str());
    size_t scale_bits = 0;
    while (scale_bits < 63 && (size_t{1} << scale_bits) < nodes) {
      ++scale_bits;
    }
    target_nodes = nodes;
    target_edges = edges;
    if (kind == "ba") {
      target_edges = nodes * per_node;
    } else if (kind == "rmat") {
      target_nodes = size_t{1} << scale_bits;
    } else if (kind != "er" && kind != "chunglu") {
      std::cerr << "unknown generator: " << kind << "\n";
      return 2;
    }
    const double homophily = std::atof(get("--homophily", "0").c_str());
    build = [=] {
      util::Rng rng(seed);
      graph::Graph g;
      if (kind == "er") {
        g = graph::ErdosRenyi(nodes, edges, labels, rng);
      } else if (kind == "ba") {
        g = graph::BarabasiAlbert(nodes, per_node, labels, rng);
      } else if (kind == "chunglu") {
        g = graph::ChungLuPowerLaw(nodes, edges, power, labels, rng);
      } else {
        g = graph::Rmat(scale_bits, edges, 0.57, 0.19, 0.19, labels, rng);
      }
      if (homophily > 0.0) {
        g = graph::RelabelWithHomophily(g, homophily, 2, rng);
      }
      return g;
    };
  } else {
    Usage();
    return 2;
  }

  const double need = PeakBytes(target_nodes, target_edges);
  const double have = PhysicalMemoryBytes();
  std::cout << std::fixed << std::setprecision(2) << "Generating "
            << target_nodes << " nodes, " << target_edges
            << " edges (estimated peak memory " << Gib(need) << " GiB of "
            << Gib(have) << " GiB physical)" << std::endl;
  if (have > 0.0 && need > have) {
    std::cerr << "psi_generate: refusing to build: the estimated "
              << Gib(need) << " GiB exceeds the " << Gib(have)
              << " GiB of physical memory; lower --scale or the counts\n";
    return 1;
  }
  const graph::Graph g = build();

  const auto status = graph::SaveLgFile(g, out);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  std::cout << "Wrote " << out << ": " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges, " << g.num_labels() << " labels\n";

  const std::string queries_out = get("--queries-out", "");
  if (!queries_out.empty()) {
    const size_t size = std::strtoull(get("--query-size", "5").c_str(),
                                      nullptr, 10);
    const size_t count = std::strtoull(get("--query-count", "100").c_str(),
                                       nullptr, 10);
    graph::QueryExtractor extractor(g);
    util::Rng qrng(seed ^ 0xBEEF);
    const auto queries = extractor.ExtractMany(size, count, qrng);
    const auto qstatus = graph::SaveQueryFile(queries, queries_out);
    if (!qstatus.ok()) {
      std::cerr << qstatus.ToString() << "\n";
      return 1;
    }
    std::cout << "Wrote " << queries_out << ": " << queries.size()
              << " pivoted queries of size " << size << "\n";
  }
  return 0;
}

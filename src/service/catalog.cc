#include "service/catalog.h"

#include <algorithm>
#include <cassert>

#include "service/snapshot_io.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/timer.h"

namespace psi::service {

namespace {

/// Bit-mixes a version number into a cache salt. SplitMix64's output
/// function: consecutive versions land in uncorrelated key ranges, so the
/// XOR-composed cache keys of two generations never collide structurally.
uint64_t VersionSalt(uint64_t version) {
  return util::SplitMix64(version)();
}

}  // namespace

GraphSnapshot::GraphSnapshot(std::string name, uint64_t version,
                             graph::Graph g, signature::SignatureMatrix sigs,
                             SnapshotTimings timings,
                             std::shared_ptr<const void> backing)
    : name_(std::move(name)),
      version_(version),
      cache_salt_(VersionSalt(version)),
      timings_(timings),
      backing_(std::move(backing)),
      graph_(std::move(g)),
      sigs_(std::move(sigs)) {
  assert(sigs_.num_rows() == graph_.num_nodes());
}

util::Result<std::shared_ptr<const GraphSnapshot>>
GraphCatalog::BuildAndPublish(std::string name, graph::Graph g,
                              SnapshotBuildOptions options) {
  SnapshotTimings timings;
  util::WallTimer build_timer;
  signature::SignatureMatrix sigs = signature::BuildSignatures(
      g, options.signature_method, options.signature_depth, g.num_labels(),
      options.pool, options.signature_decay);
  timings.signature_build_seconds = build_timer.Seconds();
  util::WallTimer prewarm_timer;
  const size_t n = sigs.num_rows();
  if (options.pool != nullptr && n > 0) {
    options.pool->ParallelFor(n, [&sigs](size_t begin, size_t end) {
      sigs.MemoizeRowHashes(begin, end);
    });
  } else {
    sigs.MemoizeRowHashes(0, n);
  }
  timings.prewarm_seconds = prewarm_timer.Seconds();
  if (options.build_compact_signatures) {
    util::WallTimer compact_timer;
    sigs.BuildCompact();
    timings.compact_build_seconds = compact_timer.Seconds();
  }
  return Publish(std::move(name), std::move(g), std::move(sigs), timings);
}

util::Result<std::shared_ptr<const GraphSnapshot>>
GraphCatalog::PublishFromFile(std::string name, const std::string& path) {
  util::WallTimer load_timer;
  auto loaded = LoadSnapshotFile(path);
  if (!loaded.ok()) return loaded.status();
  SnapshotTimings timings;
  timings.load_seconds = load_timer.Seconds();
  LoadedSnapshot& snapshot = loaded.value();
  return Publish(std::move(name), std::move(snapshot.graph),
                 std::move(snapshot.sigs), timings,
                 std::move(snapshot.backing));
}

std::future<util::Result<std::shared_ptr<const GraphSnapshot>>>
GraphCatalog::BuildAndPublishAsync(std::string name, graph::Graph g,
                                   SnapshotBuildOptions options) {
  // Serial build only: a background thread Wait()ing on a serving pool
  // would block behind (and potentially deadlock with) in-flight queries.
  options.pool = nullptr;
  return std::async(
      std::launch::async,
      [this, name = std::move(name), g = std::move(g), options]() mutable {
        return BuildAndPublish(std::move(name), std::move(g), options);
      });
}

util::Result<std::shared_ptr<const GraphSnapshot>> GraphCatalog::Publish(
    std::string name, graph::Graph g, signature::SignatureMatrix sigs,
    SnapshotTimings timings, std::shared_ptr<const void> backing) {
  if (name.empty()) {
    return util::Status::InvalidArgument("snapshot name must be non-empty");
  }
  if (sigs.num_rows() != g.num_nodes()) {
    return util::Status::InvalidArgument(
        "signature matrix rows do not match graph nodes");
  }
  // Chaos hook: a publish that fails after the (expensive) build — e.g. an
  // allocation failure or validation error at commit time. Counted, and the
  // published state is untouched: the current snapshot keeps serving.
  if (PSI_INJECT_FAULT(util::faults::kCatalogPublish)) {
    util::MutexLock lock(mutex_);
    ++counters_.publish_failures;
    return util::Status::FailedPrecondition(
        "injected catalog.publish failure for '" + name + "'");
  }

  std::shared_ptr<const GraphSnapshot> snapshot;
  {
    util::MutexLock lock(mutex_);
    snapshot = std::make_shared<const GraphSnapshot>(
        name, next_version_++, std::move(g), std::move(sigs), timings,
        std::move(backing));
    const auto it = std::lower_bound(
        current_.begin(), current_.end(), name,
        [](const auto& entry, const std::string& n) { return entry.first < n; });
    if (it != current_.end() && it->first == name) {
      // Hot swap: the old generation lives on via in-flight pins only.
      retired_.push_back(it->second);
      it->second = snapshot;
      ++counters_.swaps;
    } else {
      current_.insert(it, {std::move(name), snapshot});
    }
    ++counters_.published;
  }
  return snapshot;
}

std::shared_ptr<const GraphSnapshot> GraphCatalog::Resolve(
    std::string_view name) const {
  util::MutexLock lock(mutex_);
  const auto it = std::lower_bound(
      current_.begin(), current_.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  if (it == current_.end() || it->first != name) return nullptr;
  return it->second;
}

SnapshotPin GraphCatalog::Pin(std::string_view name) const {
  return SnapshotPin(Resolve(name));
}

bool GraphCatalog::Retire(std::string_view name) {
  util::MutexLock lock(mutex_);
  const auto it = std::lower_bound(
      current_.begin(), current_.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  if (it == current_.end() || it->first != name) return false;
  retired_.push_back(it->second);
  current_.erase(it);
  ++counters_.retired;
  return true;
}

std::vector<CatalogEntry> GraphCatalog::List() const {
  std::vector<CatalogEntry> entries;
  util::MutexLock lock(mutex_);
  entries.reserve(current_.size() + retired_.size());
  auto describe = [](const GraphSnapshot& s, bool current) {
    CatalogEntry e;
    e.name = s.name();
    e.version = s.version();
    e.current = current;
    e.pins = s.pins();
    e.num_nodes = s.graph().num_nodes();
    e.num_edges = s.graph().num_edges();
    e.num_labels = s.graph().num_labels();
    e.timings = s.timings();
    return e;
  };
  for (const auto& [name, snapshot] : current_) {
    entries.push_back(describe(*snapshot, /*current=*/true));
  }
  // Old generations: report the ones still alive, prune the rest.
  auto out = retired_.begin();
  for (auto& weak : retired_) {
    if (const auto snapshot = weak.lock()) {
      entries.push_back(describe(*snapshot, /*current=*/false));
      *out++ = std::move(weak);
    }
  }
  retired_.erase(out, retired_.end());
  std::sort(entries.begin(), entries.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.name != b.name ? a.name < b.name
                                      : a.version < b.version;
            });
  return entries;
}

GraphCatalog::Counters GraphCatalog::counters() const {
  util::MutexLock lock(mutex_);
  return counters_;
}

size_t GraphCatalog::size() const {
  util::MutexLock lock(mutex_);
  return current_.size();
}

}  // namespace psi::service

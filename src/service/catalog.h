#ifndef SMARTPSI_SERVICE_CATALOG_H_
#define SMARTPSI_SERVICE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "signature/builders.h"
#include "signature/signature_matrix.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace psi::service {

/// Wall-clock cost of producing a snapshot, reported through stats and the
/// catalog listing so operators can see what a swap will cost before
/// issuing one.
struct SnapshotTimings {
  /// Seconds spent in BuildSignatures.
  double signature_build_seconds = 0.0;
  /// Seconds spent memoizing every row hash (0 for a snapshot loaded from
  /// a file, whose ROW_HASHES section seeds the memo).
  double prewarm_seconds = 0.0;
  /// Seconds spent quantizing the compact signature matrix (0 when
  /// disabled or loaded pre-quantized from a snapshot file).
  double compact_build_seconds = 0.0;
  /// Seconds spent mapping + validating a .psnap file (0 for in-memory
  /// builds). The contrast with signature_build_seconds is the whole point
  /// of the format: a cold load costs page faults, not a rebuild.
  double load_seconds = 0.0;
};

/// An immutable, versioned (Graph, SignatureMatrix) bundle — the unit the
/// service swaps atomically. Once constructed nothing inside ever mutates
/// (the RowHash memo is internally synchronized), so a snapshot is safe to
/// share across every worker without locks.
///
/// Lifetime is shared_ptr-pinned: the catalog holds one reference while the
/// snapshot is current, and every in-flight request holds its own via
/// SnapshotPin. When a swap retires the snapshot, memory is reclaimed the
/// moment the last pin drops — old requests finish on the graph they
/// started on, new requests resolve the replacement.
class GraphSnapshot {
 public:
  /// `sigs` must have one row per node of `g`. The version is assigned by
  /// the publishing catalog; standalone snapshots (tests, single-graph
  /// tools) may pass any nonzero value. `backing` is an opaque keepalive
  /// for storage `sigs` views into (the mmap of a loaded .psnap file):
  /// the snapshot holds it until destruction, so the SnapshotPin chain
  /// transitively keeps the mapping mapped while any request is in flight.
  GraphSnapshot(std::string name, uint64_t version, graph::Graph g,
                signature::SignatureMatrix sigs, SnapshotTimings timings,
                std::shared_ptr<const void> backing = nullptr);

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  const graph::Graph& graph() const { return graph_; }
  const signature::SignatureMatrix& signatures() const { return sigs_; }
  const std::string& name() const { return name_; }

  /// Monotonically increasing across every publish of the owning catalog
  /// (never reused, even across names) — the generation stamp responses
  /// report and the prediction cache keys on. 0 is reserved for "no
  /// snapshot" (standalone engines).
  uint64_t version() const { return version_; }

  const SnapshotTimings& timings() const { return timings_; }

  /// Salt XORed into every prediction-cache key derived from this snapshot
  /// (a bit-mixed function of the version), so entries from different
  /// generations occupy disjoint key ranges. The raw version is used as the
  /// cache epoch stamp on top of this — see PredictionCache::Entry::epoch.
  uint64_t cache_salt() const { return cache_salt_; }

  /// In-flight request gauge. Prefer SnapshotPin over calling these
  /// directly; the pair must balance.
  void Pin() const { pins_.fetch_add(1, std::memory_order_relaxed); }
  void Unpin() const { pins_.fetch_sub(1, std::memory_order_release); }
  uint64_t pins() const { return pins_.load(std::memory_order_acquire); }

 private:
  const std::string name_;
  const uint64_t version_;
  const uint64_t cache_salt_;
  const SnapshotTimings timings_;
  /// Declared before graph_/sigs_ so it is destroyed after them: sigs_ may
  /// be a zero-copy view into this storage (see the constructor comment).
  const std::shared_ptr<const void> backing_;
  const graph::Graph graph_;
  const signature::SignatureMatrix sigs_;
  /// Requests currently executing against this snapshot. Monitoring gauge
  /// only — lifetime is carried by the shared_ptr, not this count.
  mutable std::atomic<uint64_t> pins_{0};
};

/// RAII pin: holds a shared_ptr (keeping the snapshot alive) and maintains
/// its pin gauge. Move-only; an empty pin means resolution failed (unknown
/// graph name).
class SnapshotPin {
 public:
  SnapshotPin() = default;
  explicit SnapshotPin(std::shared_ptr<const GraphSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {
    if (snapshot_ != nullptr) snapshot_->Pin();
  }
  ~SnapshotPin() {
    if (snapshot_ != nullptr) snapshot_->Unpin();
  }

  SnapshotPin(SnapshotPin&& other) noexcept
      : snapshot_(std::move(other.snapshot_)) {
    other.snapshot_.reset();
  }
  SnapshotPin& operator=(SnapshotPin&& other) noexcept {
    if (this != &other) {
      if (snapshot_ != nullptr) snapshot_->Unpin();
      snapshot_ = std::move(other.snapshot_);
      other.snapshot_.reset();
    }
    return *this;
  }
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;

  explicit operator bool() const { return snapshot_ != nullptr; }
  const GraphSnapshot& operator*() const { return *snapshot_; }
  const GraphSnapshot* operator->() const { return snapshot_.get(); }

 private:
  std::shared_ptr<const GraphSnapshot> snapshot_;
};

/// How GraphCatalog::BuildAndPublish constructs a snapshot's derived state.
/// (A free struct, not nested, so it can serve as a default argument inside
/// GraphCatalog.)
struct SnapshotBuildOptions {
  signature::Method signature_method = signature::Method::kMatrix;
  uint32_t signature_depth = signature::kDefaultDepth;
  float signature_decay = signature::SignatureMatrix::kDefaultDecay;
  /// Quantize the signature matrix into its 8-bit compact companion
  /// (compact_signature.h) so the bulk filter kernels prescreen candidates
  /// at a quarter of the memory traffic. Answers are bit-identical either
  /// way (over-admit + exact re-check); the toggle exists for A/B
  /// benchmarking and differential tests, not as a safety valve.
  bool build_compact_signatures = true;
  /// Parallelizes BuildSignatures and the prewarm. Caution: the build
  /// runs pool tasks and Wait()s, and ThreadPool::Wait waits for *all*
  /// tasks — never pass a pool that is concurrently executing queries
  /// (background swaps must build serially or on a dedicated pool).
  util::ThreadPool* pool = nullptr;
};

/// One row of GraphCatalog::List(): a current or still-pinned retired
/// snapshot, described for operators (`psi_serve`'s `!list`).
struct CatalogEntry {
  std::string name;
  uint64_t version = 0;
  /// True when this is the snapshot new requests for `name` resolve to;
  /// false for a retired generation kept alive only by in-flight pins.
  bool current = false;
  uint64_t pins = 0;
  size_t num_nodes = 0;
  size_t num_edges = 0;
  size_t num_labels = 0;
  SnapshotTimings timings;
};

/// Name → current-snapshot map with atomic publish/retire — the ownership
/// root of the serving stack. Publishing a name that already exists is a
/// hot swap: the map entry flips to the new snapshot in one critical
/// section, in-flight requests keep their pins on the old one, and the old
/// snapshot's memory is reclaimed when its last pin drops.
///
/// Locking (DESIGN.md §12): one leaf mutex guards the map, the retired
/// list and the counters. It is held only for pointer swaps and list
/// copies — never across a build, a publish fault hook, or user code — so
/// Resolve() on the hot path costs one uncontended lock + shared_ptr copy.
///
/// Thread-safe: all methods may be called concurrently.
class GraphCatalog {
 public:
  using BuildOptions = SnapshotBuildOptions;

  /// Monotonic publish/retire traffic since construction.
  struct Counters {
    uint64_t published = 0;
    /// Publishes that replaced an existing current snapshot (a hot swap).
    uint64_t swaps = 0;
    uint64_t retired = 0;
    /// Publishes aborted by the `catalog.publish` fault site.
    uint64_t publish_failures = 0;
  };

  GraphCatalog() = default;
  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Builds signatures and memoizes every row hash for `g`, then
  /// publishes the bundle under `name` — replacing the current snapshot of
  /// that name, if any. The build runs outside the catalog lock; only the
  /// final pointer swap is a critical section. Fails (without touching the
  /// published state) when the `catalog.publish` fault site fires.
  util::Result<std::shared_ptr<const GraphSnapshot>> BuildAndPublish(
      std::string name, graph::Graph g,
      SnapshotBuildOptions options = SnapshotBuildOptions());

  /// Maps a .psnap snapshot file (service/snapshot_io.h) and publishes it
  /// under `name` — the O(page-fault) alternative to BuildAndPublish's
  /// full signature rebuild. The published snapshot serves its float and
  /// compact signatures zero-copy out of the mapping, which stays mapped
  /// until the snapshot's last pin drops. Same fault site and swap
  /// semantics as BuildAndPublish; validation failures (corruption,
  /// truncation, version skew) leave the published state untouched.
  util::Result<std::shared_ptr<const GraphSnapshot>> PublishFromFile(
      std::string name, const std::string& path);

  /// BuildAndPublish on a detached thread — the background build pipeline
  /// behind `psi_serve`'s non-blocking `!load`. The build always runs
  /// serially (options.pool is ignored): a background build must never
  /// Wait() on a pool that is serving queries.
  std::future<util::Result<std::shared_ptr<const GraphSnapshot>>>
  BuildAndPublishAsync(std::string name, graph::Graph g,
                       SnapshotBuildOptions options = SnapshotBuildOptions());

  /// Current snapshot for `name`, or null when unknown/retired. The
  /// returned shared_ptr alone keeps the snapshot alive but does not count
  /// in the pin gauge; request paths should use Pin().
  std::shared_ptr<const GraphSnapshot> Resolve(std::string_view name) const;

  /// Resolve + pin in one step — what admission calls. An empty pin means
  /// the name is unknown (the request becomes kNotFound).
  SnapshotPin Pin(std::string_view name) const;

  /// Removes `name` from the map: new requests stop resolving it, and the
  /// snapshot is destroyed once the last in-flight pin (and any caller
  /// shared_ptrs) drop. Returns false for an unknown name.
  bool Retire(std::string_view name);

  /// Every current snapshot plus retired generations still kept alive by
  /// pins, sorted by name then version. The retired list is pruned of
  /// fully-released generations as a side effect.
  std::vector<CatalogEntry> List() const;

  Counters counters() const;

  /// Number of current (published, un-retired) names.
  size_t size() const;

 private:
  util::Result<std::shared_ptr<const GraphSnapshot>> Publish(
      std::string name, graph::Graph g, signature::SignatureMatrix sigs,
      SnapshotTimings timings,
      std::shared_ptr<const void> backing = nullptr);

  mutable util::Mutex mutex_;
  /// Sorted association list instead of a hash map: catalogs hold a
  /// handful of graphs, and List() wants name order anyway.
  std::vector<std::pair<std::string, std::shared_ptr<const GraphSnapshot>>>
      current_ PSI_GUARDED_BY(mutex_);
  /// Replaced/retired snapshots observed until their pins drain, so List()
  /// can show a swap's old generation winding down. Pruned on List().
  mutable std::vector<std::weak_ptr<const GraphSnapshot>> retired_
      PSI_GUARDED_BY(mutex_);
  Counters counters_ PSI_GUARDED_BY(mutex_);
  /// Next version to assign; versions are catalog-global so a version
  /// number uniquely identifies a publish even across names.
  uint64_t next_version_ PSI_GUARDED_BY(mutex_) = 1;
};

}  // namespace psi::service

#endif  // SMARTPSI_SERVICE_CATALOG_H_

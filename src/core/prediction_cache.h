#ifndef SMARTPSI_CORE_PREDICTION_CACHE_H_
#define SMARTPSI_CORE_PREDICTION_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace psi::core {

/// Signature-keyed prediction cache (paper §4.2.3). Nodes with identical
/// neighborhood signatures are structurally indistinguishable to the
/// models, so the confirmed (method, plan) decision of one is reused for
/// the others without consulting the classifiers — and, because entries are
/// written only after an evaluation *confirmed* the node type, cached
/// decisions sidestep model mispredictions too.
///
/// Correctness is unaffected either way: every node is still evaluated;
/// only the choice of method/plan comes from the cache.
///
/// Bounded: 16 flat open-addressing shards (linear probing, power-of-two
/// capacity) that grow by doubling up to a fixed total of kMaxSlots. A shard
/// at its cap that fills to 3/4 load is emptied; its entries are counted in
/// Counters::evictions and re-confirmed on their next miss.
///
/// Thread-safe; sharded 16 ways so parallel candidate evaluation does not
/// serialize on one mutex (every candidate performs a lookup + insert).
class PredictionCache {
 public:
  struct Entry {
    /// Confirmed node type: true = valid (optimistic method is right).
    bool valid = false;
    /// Plan-pool index that completed the evaluation.
    uint16_t plan_index = 0;
    /// Search steps of the run that confirmed the decision (saturated); the
    /// Realist's MaxTime base for the next evaluation steered by this entry.
    uint32_t steps = 0;
    /// Generation stamp of the state the decision was confirmed against —
    /// the service stamps entries with the graph-snapshot version. 0 for
    /// standalone engines with no snapshot. An entry whose epoch's low 16
    /// bits differ from the lookup's expected epoch's is treated as a miss
    /// and counted in Counters::epoch_drops (the cross-snapshot tripwire).
    uint64_t epoch = 0;
  };
  static_assert(sizeof(Entry) == 16, "Entry must pack to 16 bytes");

  static constexpr size_t kShards = 16;
  /// Total slot capacity across shards, and the entry bound it implies at
  /// the 3/4 maximum load: 393,216 entries, over twice the working set of
  /// a hot 192-query Zipf workload, so steady hot traffic never evicts.
  static constexpr size_t kMaxSlots = size_t{1} << 19;
  static constexpr size_t kMaxEntries = kMaxSlots / 4 * 3;

  /// Monotonic usage counters, aggregated across shards. A consistent
  /// per-shard view is taken under the shard lock; the totals may mix
  /// slightly different instants across shards, which is fine for
  /// monitoring.
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    /// Lookups that found an entry under the right key but from a
    /// different epoch (dropped, counted as a miss). With the service's
    /// version-salted keys this must stay 0 — asserted by
    /// `psi_loadgen --swap-storm`; a nonzero value means a cache key
    /// collided across snapshot generations.
    uint64_t epoch_drops = 0;
    /// Entries dropped when a full shard at its cap was emptied.
    uint64_t evictions = 0;

    double HitRate() const {
      const uint64_t lookups = hits + misses;
      return lookups == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups);
    }
  };

  /// Returns the cached decision for a signature hash, if any. An entry
  /// stamped with a different epoch is dropped (nullopt + epoch_drops).
  std::optional<Entry> Lookup(uint64_t signature_hash,
                              uint64_t expected_epoch = 0) const;

  /// Records a confirmed decision (last writer wins).
  void Insert(uint64_t signature_hash, Entry entry);

  /// Entries held; never above kMaxEntries.
  size_t size() const;

  /// Snapshot of hit/miss/insert counters since construction (emptying a
  /// full shard does not reset them; they describe traffic, not contents).
  Counters counters() const;

 private:
  static constexpr size_t kShardSlots = kMaxSlots / kShards;
  static constexpr size_t kInitialShardSlots = 64;

  /// One table slot in 16 bytes: the epoch keeps its low 16 bits (a false
  /// hit across generations 65,536 publishes apart would also need a 64-bit
  /// key collision) and plan indices saturate at 255 (readers clamp them).
  struct Slot {
    uint64_t key;
    uint32_t steps;
    uint16_t epoch;
    uint8_t plan_index;
    uint8_t flags;  // kOccupied | kValid
  };
  static_assert(sizeof(Slot) == 16, "a slot is the key plus 8 bytes");
  static constexpr uint8_t kOccupied = 1;
  static constexpr uint8_t kValid = 2;

  /// Everything in a shard — its table and traffic counters — is guarded
  /// by the shard's own mutex; shards never nest, so no lock order exists.
  struct Shard {
    mutable util::Mutex mutex;
    /// Empty until the first insert; otherwise a power of two in
    /// [kInitialShardSlots, kShardSlots].
    std::vector<Slot> slots PSI_GUARDED_BY(mutex);
    size_t size PSI_GUARDED_BY(mutex) = 0;
    // Plain integers bumped under the shard lock already held for the table
    // operation itself — no extra synchronization on the fast path.
    mutable uint64_t hits PSI_GUARDED_BY(mutex) = 0;
    mutable uint64_t misses PSI_GUARDED_BY(mutex) = 0;
    mutable uint64_t epoch_drops PSI_GUARDED_BY(mutex) = 0;
    uint64_t inserts PSI_GUARDED_BY(mutex) = 0;
    uint64_t evictions PSI_GUARDED_BY(mutex) = 0;

    /// Index of `key`'s slot, or of the empty slot where it would go. The
    /// table must be non-empty and below full load.
    size_t Find(uint64_t key) const PSI_REQUIRES(mutex);
    /// Doubles the table and rehashes every entry into it.
    void Grow() PSI_REQUIRES(mutex);
    /// Makes room for one more entry: doubles below the cap, otherwise
    /// empties the shard.
    void MakeRoom() PSI_REQUIRES(mutex);
  };

  /// Shard on the key's top bits; Shard::Find picks the slot from a
  /// multiplicative mix of the whole key, so every shard's slots fill
  /// evenly.
  static size_t ShardIndex(uint64_t hash) { return (hash >> 60) % kShards; }

  std::array<Shard, kShards> shards_;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_PREDICTION_CACHE_H_

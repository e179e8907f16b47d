#include "core/prediction_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/fault_injection.h"
#include "util/mutex.h"

namespace psi::core {

size_t PredictionCache::Shard::Find(uint64_t key) const {
  // Fibonacci hashing: the product's high bits pick the home slot, so keys
  // that differ only in their high bits (the shard index) still spread.
  const size_t mask = slots.size() - 1;
  size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - std::countr_zero(slots.size())));
  while ((slots[i].flags & kOccupied) != 0 && slots[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void PredictionCache::Shard::Grow() {
  const std::vector<Slot> old =
      std::exchange(slots, std::vector<Slot>(slots.size() * 2));
  for (const Slot& slot : old) {
    if ((slot.flags & kOccupied) != 0) slots[Find(slot.key)] = slot;
  }
}

void PredictionCache::Shard::MakeRoom() {
  if (slots.empty()) {
    slots.resize(kInitialShardSlots);
    return;
  }
  if ((size + 1) * 4 <= slots.size() * 3) return;
  if (slots.size() < kShardSlots) {
    Grow();
    return;
  }
  // At the cap: start the shard over. Entries are re-confirmed on their
  // next miss, and retired snapshots' entries leave with the rest.
  evictions += size;
  std::fill(slots.begin(), slots.end(), Slot{});
  size = 0;
}

std::optional<PredictionCache::Entry> PredictionCache::Lookup(
    uint64_t signature_hash, uint64_t expected_epoch) const {
  // Chaos hooks, evaluated before the shard lock so a firing schedule never
  // extends the critical section. A forced miss models cache eviction /
  // cold restart; poison models a stale or corrupted entry. Both are
  // correctness-safe by design: entries only steer the (method, plan)
  // choice, every node is still evaluated (see class comment).
  const bool forced_miss = PSI_INJECT_FAULT(util::faults::kCacheLookupMiss);
  const bool poison = PSI_INJECT_FAULT(util::faults::kCacheLookupPoison);
  const Shard& shard = shards_[ShardIndex(signature_hash)];
  util::MutexLock lock(shard.mutex);
  const Slot* slot = nullptr;
  if (!forced_miss && !shard.slots.empty()) {
    slot = &shard.slots[shard.Find(signature_hash)];
    if ((slot->flags & kOccupied) == 0) slot = nullptr;
  }
  if (slot == nullptr) {
    ++shard.misses;
    return std::nullopt;
  }
  if (slot->epoch != static_cast<uint16_t>(expected_epoch)) {
    // Key matched but the entry was confirmed against a different snapshot
    // generation. With version-salted keys this should be unreachable; the
    // counter is the tripwire swap-storm asserts on.
    ++shard.epoch_drops;
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  Entry entry{(slot->flags & kValid) != 0, slot->plan_index, slot->steps,
              expected_epoch};
  if (poison) {
    entry.valid = !entry.valid;
    ++entry.plan_index;  // consumers clamp out-of-range plan indices
  }
  return entry;
}

void PredictionCache::Insert(uint64_t signature_hash, Entry entry) {
  Shard& shard = shards_[ShardIndex(signature_hash)];
  util::MutexLock lock(shard.mutex);
  ++shard.inserts;
  size_t i = 0;
  bool present = false;
  if (!shard.slots.empty()) {
    i = shard.Find(signature_hash);
    present = (shard.slots[i].flags & kOccupied) != 0;
  }
  if (!present) {
    shard.MakeRoom();  // may rehash or reset: probe again
    i = shard.Find(signature_hash);
    ++shard.size;
  }
  shard.slots[i] = {
      signature_hash, entry.steps, static_cast<uint16_t>(entry.epoch),
      static_cast<uint8_t>(std::min<uint16_t>(entry.plan_index, UINT8_MAX)),
      static_cast<uint8_t>(kOccupied | (entry.valid ? kValid : 0))};
}

size_t PredictionCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    total += shard.size;
  }
  return total;
}

PredictionCache::Counters PredictionCache::counters() const {
  Counters total;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.epoch_drops += shard.epoch_drops;
    total.inserts += shard.inserts;
    total.evictions += shard.evictions;
  }
  return total;
}

}  // namespace psi::core

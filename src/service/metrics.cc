#include "service/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/stats.h"

namespace psi::service {

namespace {

/// Whole microseconds of a duration, for the integer time counters.
uint64_t Micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e6 + 0.5);
}

}  // namespace

LatencyReservoir::LatencyReservoir(size_t capacity)
    : slots_(std::max<size_t>(1, capacity)) {
  for (auto& slot : slots_) slot.store(0.0, std::memory_order_relaxed);
}

void LatencyReservoir::Record(double seconds) {
  // Release: a reader that observes this count also observes every write
  // the recording thread made before claiming the slot (in particular the
  // terminal-status increment MetricsRegistry performs first — the
  // latency.count <= Settled() half of the snapshot contract).
  //
  // The slot index is claimed *before* the sample is stored, so a
  // concurrent Summarize may see a count that covers a slot whose store
  // has not landed yet; that slot reads as its previous value (0.0 when
  // fresh, a stale sample once the ring has wrapped). Acceptable for
  // monitoring stats — see the caveat in Summarize.
  const uint64_t i = count_.fetch_add(1, std::memory_order_release);
  slots_[i % slots_.size()].store(seconds, std::memory_order_relaxed);
}

LatencyReservoir::Summary LatencyReservoir::Summarize() const {
  Summary s;
  s.count = count_.load(std::memory_order_acquire);
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(s.count, slots_.size()));
  if (n == 0) return s;
  // Concurrent writers may overwrite slots while we copy. Each slot read
  // is atomic, so no individual sample is ever torn, but the window is not
  // a consistent cut: a slot claimed in Record whose store has not landed
  // yet reads as its previous value (0.0 when fresh, a stale sample after
  // wrap), which can fold a spurious value into mean/percentiles. Fine for
  // monitoring; do not treat the summary as an exact transcript.
  std::vector<double> window(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    window[i] = slots_[i].load(std::memory_order_relaxed);
    sum += window[i];
    s.max = std::max(s.max, window[i]);
  }
  s.mean = sum / static_cast<double>(n);
  std::sort(window.begin(), window.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(n - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    return window[lo] * (1.0 - frac) + window[hi] * frac;
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  return s;
}

void MetricsRegistry::RecordOutcome(const QueryResponse& response,
                                    uint64_t method_recoveries,
                                    uint64_t plan_fallbacks,
                                    bool smart_evaluated) {
  // Terminal-status increments use release so a Snapshot() that acquires
  // one of them also sees the admission that preceded it (the
  // Settled() <= admitted half of the snapshot contract); the latency
  // record below then publishes this increment in turn.
  switch (response.status) {
    case RequestStatus::kOk:
      completed_.fetch_add(1, std::memory_order_release);
      break;
    case RequestStatus::kTimeout:
      timed_out_.fetch_add(1, std::memory_order_release);
      break;
    case RequestStatus::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_release);
      break;
    case RequestStatus::kInvalid:
      invalid_.fetch_add(1, std::memory_order_release);
      break;
    case RequestStatus::kNotFound:
      not_found_.fetch_add(1, std::memory_order_release);
      break;
    case RequestStatus::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;  // never admitted: no latency, no engine work
  }
  cache_hits_.fetch_add(response.cache_hits, std::memory_order_relaxed);
  method_recoveries_.fetch_add(method_recoveries, std::memory_order_relaxed);
  plan_fallbacks_.fetch_add(plan_fallbacks, std::memory_order_relaxed);
  candidates_evaluated_.fetch_add(response.num_candidates,
                                  std::memory_order_relaxed);
  cache_mismatches_.fetch_add(response.cache_mismatches,
                              std::memory_order_relaxed);
  work_steals_.fetch_add(response.work_steals, std::memory_order_relaxed);
  if (smart_evaluated) {
    training_nodes_.fetch_add(response.num_training_nodes,
                              std::memory_order_relaxed);
    train_micros_.fetch_add(Micros(response.train_seconds),
                            std::memory_order_relaxed);
    smart_exec_micros_.fetch_add(Micros(response.exec_seconds),
                                 std::memory_order_relaxed);
  }
  latencies_.Record(response.latency_seconds);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Read order is the reverse of the write order in RecordOutcome so the
  // snapshot invariants hold under concurrent writers: the latency window
  // first (acquire on its count), then the terminal-status counters
  // (acquire), then admissions last. Each acquire pairs with the writers'
  // release increments, so anything a writer did before a value we read is
  // visible to the later loads. See the contract on the class comment.
  MetricsSnapshot s;
  s.latency = latencies_.Summarize();
  s.completed = completed_.load(std::memory_order_acquire);
  s.timed_out = timed_out_.load(std::memory_order_acquire);
  s.cancelled = cancelled_.load(std::memory_order_acquire);
  s.invalid = invalid_.load(std::memory_order_acquire);
  s.not_found = not_found_.load(std::memory_order_acquire);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.method_recoveries = method_recoveries_.load(std::memory_order_relaxed);
  s.plan_fallbacks = plan_fallbacks_.load(std::memory_order_relaxed);
  s.candidates_evaluated =
      candidates_evaluated_.load(std::memory_order_relaxed);
  s.cache_mismatches = cache_mismatches_.load(std::memory_order_relaxed);
  s.work_steals = work_steals_.load(std::memory_order_relaxed);
  s.training_nodes = training_nodes_.load(std::memory_order_relaxed);
  s.train_micros = train_micros_.load(std::memory_order_relaxed);
  s.smart_exec_micros = smart_exec_micros_.load(std::memory_order_relaxed);
  s.batch_submitted = batch_submitted_.load(std::memory_order_relaxed);
  s.batch_rejected = batch_rejected_.load(std::memory_order_relaxed);
  s.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  s.batch_context_hits = batch_context_hits_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream oss;
  oss << "requests: admitted=" << admitted << " rejected=" << rejected
      << " completed=" << completed
      << " timed_out=" << timed_out << " cancelled=" << cancelled
      << " invalid=" << invalid << " not_found=" << not_found << "\n"
      << "engine: cache_hits=" << cache_hits
      << " method_recoveries=" << method_recoveries
      << " plan_fallbacks=" << plan_fallbacks
      << " candidates=" << candidates_evaluated
      << " cache_mismatches=" << cache_mismatches << "\n"
      << "search: work_steals=" << work_steals << "\n"
      << "realist: training_nodes=" << training_nodes
      << " train_micros=" << train_micros
      << " smart_exec_micros=" << smart_exec_micros
      << " train_share=" << TrainShare() << "\n"
      << "batch: batch_submitted=" << batch_submitted
      << " batch_rejected=" << batch_rejected
      << " batch_queries=" << batch_queries
      << " batch_context_hits=" << batch_context_hits << "\n"
      << "catalog: publishes=" << snapshot_publishes
      << " swaps=" << snapshot_swaps << " retires=" << snapshot_retires
      << " publish_failures=" << snapshot_publish_failures << "\n"
      << "cache: cache_entries=" << cache_entries
      << " cache_evictions=" << cache_evictions << "\n"
      << "latency (" << latency.count
      << " samples): mean=" << util::FormatDuration(latency.mean)
      << " p50=" << util::FormatDuration(latency.p50)
      << " p95=" << util::FormatDuration(latency.p95)
      << " p99=" << util::FormatDuration(latency.p99)
      << " max=" << util::FormatDuration(latency.max);
  return oss.str();
}

}  // namespace psi::service

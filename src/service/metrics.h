#ifndef SMARTPSI_SERVICE_METRICS_H_
#define SMARTPSI_SERVICE_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"

namespace psi::service {

/// Lock-free fixed-capacity sample ring for latency observations. Writers
/// claim a slot with one fetch_add and store with one relaxed atomic write,
/// so the request hot path never takes a lock; once full, the ring keeps a
/// sliding window of the most recent `capacity` samples. Summarize() copies
/// the window and computes order statistics — a read-side cost only.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(size_t capacity = kDefaultCapacity);

  void Record(double seconds);

  struct Summary {
    /// Total observations ever recorded (not capped by capacity).
    uint64_t count = 0;
    // Statistics over the retained window:
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  Summary Summarize() const;

  static constexpr size_t kDefaultCapacity = 8192;

 private:
  std::vector<std::atomic<double>> slots_;
  std::atomic<uint64_t> count_{0};
};

/// Point-in-time copy of every service counter, cheap to pass around and
/// print. Counters are monotonic since service construction.
struct MetricsSnapshot {
  // Admission.
  uint64_t admitted = 0;
  uint64_t rejected = 0;  // shed at the queue bound

  // Terminal states of admitted requests.
  uint64_t completed = 0;
  uint64_t timed_out = 0;
  uint64_t cancelled = 0;
  uint64_t invalid = 0;
  /// Admitted, but the requested graph name resolved to no snapshot.
  uint64_t not_found = 0;

  // Engine-side work, aggregated across requests.
  uint64_t cache_hits = 0;
  uint64_t method_recoveries = 0;  // preemptive executor state-2 switches
  uint64_t plan_fallbacks = 0;     // preemptive executor state-3 fallbacks
  uint64_t candidates_evaluated = 0;
  /// Cache hits whose prediction disagreed with the confirmed outcome —
  /// the Realist-health signal for stale or poisoned entries (answers stay
  /// exact; see PsiQueryResult).
  uint64_t cache_mismatches = 0;

  // Work-stealing parallel search (DESIGN.md §14), aggregated across
  // requests.
  uint64_t work_steals = 0;

  // Realist training's share of the work, aggregated across the requests
  // the Realist evaluated: nodes trained, microseconds spent training, and
  // the microseconds those requests executed in all. TrainShare() is the
  // ratio of the last two.
  uint64_t training_nodes = 0;
  uint64_t train_micros = 0;
  uint64_t smart_exec_micros = 0;

  // Batched execution (DESIGN.md §17), counting SubmitBatch traffic only
  // (a Submit is a batch of one inside the service, but not batch traffic).
  // A batch is admitted as one unit; its member queries still settle
  // through the terminal counters above, so Settled() accounting is
  // unchanged by batching.
  uint64_t batch_submitted = 0;  // batches admitted as a unit
  uint64_t batch_rejected = 0;   // whole batches shed at admission
  uint64_t batch_queries = 0;    // member queries settled via a batch
  /// Member queries that reused a shared batch-context entry (pivot
  /// candidates and/or query-signature rows prepared by an earlier query
  /// in the same batch).
  uint64_t batch_context_hits = 0;

  // Snapshot catalog traffic. The MetricsRegistry does not own these —
  // PsiService::Stats() folds them in from GraphCatalog::counters() so one
  // snapshot (and one ToString) covers the whole service surface.
  uint64_t snapshot_publishes = 0;
  uint64_t snapshot_swaps = 0;      // publishes that replaced a current name
  uint64_t snapshot_retires = 0;
  uint64_t snapshot_publish_failures = 0;  // catalog.publish fault aborts

  // Shared prediction cache (DESIGN.md §12.3). Also folded in by
  // PsiService::Stats() from the cache itself: live entries (a gauge,
  // bounded by PredictionCache::kMaxEntries) and entries dropped when a
  // full shard was emptied (monotonic).
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;

  LatencyReservoir::Summary latency;

  /// Terminal events recorded so far (== admitted once the queue drains).
  uint64_t Settled() const {
    return completed + timed_out + cancelled + invalid + not_found;
  }

  /// Fraction of the Realist's execution time spent training (0 before
  /// any Realist request).
  double TrainShare() const {
    return smart_exec_micros == 0
               ? 0.0
               : static_cast<double>(train_micros) /
                     static_cast<double>(smart_exec_micros);
  }

  /// Multi-line human-readable dump for tools.
  std::string ToString() const;
};

/// Thread-safe service instrumentation: atomic counters plus a lock-free
/// latency reservoir. One instance is shared by every worker; all methods
/// are safe for concurrent use.
///
/// Snapshot consistency contract (tested by service_metrics_test and the
/// TSan race harness): in every Snapshot(), regardless of concurrent
/// writers,
///   * latency.count <= Settled()  — every latency sample was preceded by
///     its terminal-status increment, and
///   * Settled() <= admitted       — every terminal status was preceded by
///     its admission (PsiService counts admission before enqueueing).
/// Both hold because settling writes use release ordering, Snapshot() reads
/// in the reverse order (latency first, admissions last) with acquire on
/// the settling counters, and the release sequence on each RMW chain
/// publishes every earlier increment along with the value read.
class MetricsRegistry {
 public:
  void RecordRejected(uint64_t count = 1) {
    rejected_.fetch_add(count, std::memory_order_relaxed);
  }
  void RecordAdmitted(uint64_t count = 1) {
    admitted_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Revokes a provisional RecordAdmitted() whose enqueue was subsequently
  /// shed. Counting admission first and revoking on failure (rather than
  /// counting after a successful enqueue) is what keeps Settled() from
  /// overtaking `admitted` when a worker finishes the request before the
  /// submitter's next instruction runs.
  void UndoAdmitted(uint64_t count = 1) {
    admitted_.fetch_sub(count, std::memory_order_relaxed);
  }

  /// Records a batch admitted as a unit.
  void RecordBatchSubmitted() {
    batch_submitted_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a whole batch shed at admission.
  void RecordBatchRejected() {
    batch_rejected_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records the member queries of one settled SubmitBatch. Of those
  /// `queries`, `context_hits` reused a shared batch-context entry.
  void RecordBatchQueries(uint64_t queries, uint64_t context_hits) {
    batch_queries_.fetch_add(queries, std::memory_order_relaxed);
    batch_context_hits_.fetch_add(context_hits, std::memory_order_relaxed);
  }

  /// Records a terminal response (status bucket + engine counters +
  /// latency). kRejected responses route to RecordRejected's counter and
  /// record no latency — they were never admitted. `smart_evaluated` marks
  /// a response the Realist evaluated: its exec_seconds then count toward
  /// smart_exec_micros.
  void RecordOutcome(const QueryResponse& response,
                     uint64_t method_recoveries = 0,
                     uint64_t plan_fallbacks = 0,
                     bool smart_evaluated = false);

  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> cache_mismatches_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> not_found_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> method_recoveries_{0};
  std::atomic<uint64_t> plan_fallbacks_{0};
  std::atomic<uint64_t> candidates_evaluated_{0};
  std::atomic<uint64_t> work_steals_{0};
  std::atomic<uint64_t> training_nodes_{0};
  std::atomic<uint64_t> train_micros_{0};
  std::atomic<uint64_t> smart_exec_micros_{0};
  std::atomic<uint64_t> batch_submitted_{0};
  std::atomic<uint64_t> batch_rejected_{0};
  std::atomic<uint64_t> batch_queries_{0};
  std::atomic<uint64_t> batch_context_hits_{0};
  LatencyReservoir latencies_;
};

}  // namespace psi::service

#endif  // SMARTPSI_SERVICE_METRICS_H_

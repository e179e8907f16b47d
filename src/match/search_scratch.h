#ifndef SMARTPSI_MATCH_SEARCH_SCRATCH_H_
#define SMARTPSI_MATCH_SEARCH_SCRATCH_H_

#include <memory>
#include <vector>

#include "graph/types.h"
#include "match/plan.h"
#include "signature/kernels.h"
#include "signature/sparse_requirement.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace psi::match {

/// A query neighbor that appears earlier in the matching order (the edge
/// the candidate generator must stay consistent with).
struct BackwardNeighbor {
  graph::NodeId query_node;
  graph::Label edge_label;
};

/// All mutable search state of one PsiEvaluator binding, factored out so it
/// can outlive the evaluator and be pooled (DESIGN.md §9). Every container
/// is rebuilt by BindQuery *in place* — capacity persists across rebinds,
/// candidates, and queries, so the steady state of a long-lived scratch
/// (e.g. one pooled per service worker) allocates nothing.
///
/// Not thread-safe; one scratch belongs to at most one evaluator at a time
/// (SearchScratchPool enforces this for pooled use).
struct SearchScratch {
  /// Copy of the bound plan (assign() into it reuses capacity).
  Plan plan;

  /// plan_position[query node] = its level in the plan (BindQuery temp).
  std::vector<size_t> plan_position;

  /// Backward neighbors of all levels, flattened: level i's anchors are
  /// backward_flat[backward_offsets[i] .. backward_offsets[i + 1]).
  std::vector<BackwardNeighbor> backward_flat;
  std::vector<uint32_t> backward_offsets;

  /// mapping[query node] = data node or kInvalidNode.
  std::vector<graph::NodeId> mapping;

  /// mapped_stack[i] = data node mapped at plan level i (used checks).
  std::vector<graph::NodeId> mapped_stack;

  /// Per-level candidate buffers.
  std::vector<std::vector<graph::NodeId>> level_candidates;

  /// level_reqs[i] = sparse view of the query signature row of plan node i
  /// (shared by the satisfaction filter and the score ranking).
  std::vector<signature::SparseRequirement> level_reqs;

  /// Buffers for the bulk score-and-rank kernel.
  signature::RankScratch rank;
};

/// Thread-safe free list of SearchScratch arenas. A long-lived owner (the
/// SmartPSI engine, and through its per-worker engines the query service)
/// keeps one pool so evaluators created per query reuse warmed-up scratch
/// instead of reallocating their buffers from scratch each time.
class SearchScratchPool {
 public:
  /// Exclusive use of one scratch for the lease's lifetime. Constructed
  /// from a pool it checks out (allocating only when the pool is empty)
  /// and returns on destruction; constructed from nullptr it owns a
  /// private scratch — the unpooled fallback.
  class Lease {
   public:
    explicit Lease(SearchScratchPool* pool)
        : pool_(pool),
          scratch_(pool != nullptr ? pool->Acquire()
                                   : std::make_unique<SearchScratch>()) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->Release(std::move(scratch_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    SearchScratch* get() const { return scratch_.get(); }

   private:
    SearchScratchPool* pool_;
    std::unique_ptr<SearchScratch> scratch_;
  };

  std::unique_ptr<SearchScratch> Acquire() {
    util::MutexLock lock(mutex_);
    if (free_.empty()) return std::make_unique<SearchScratch>();
    auto scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }

  void Release(std::unique_ptr<SearchScratch> scratch) {
    util::MutexLock lock(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<SearchScratch>> free_ PSI_GUARDED_BY(mutex_);
};

}  // namespace psi::match

#endif  // SMARTPSI_MATCH_SEARCH_SCRATCH_H_

#ifndef SMARTPSI_MATCH_SEARCH_STATS_H_
#define SMARTPSI_MATCH_SEARCH_STATS_H_

#include <cstdint>

namespace psi::match {

/// Instrumentation counters shared by all search engines. Cheap to update
/// (plain members, no atomics); aggregate per-thread copies when running in
/// parallel.
struct SearchStats {
  /// Recursive search calls (≈ partial mappings attempted).
  uint64_t recursive_calls = 0;
  /// Candidate data nodes examined across all levels.
  uint64_t candidates_examined = 0;
  /// Signature satisfaction tests performed (pessimist).
  uint64_t signature_checks = 0;
  /// Candidates pruned by a failed satisfaction test.
  uint64_t pruned_by_signature = 0;
  /// Candidate-list sorts performed (optimist).
  uint64_t score_sorts = 0;
  /// Full embeddings found (enumeration engines).
  uint64_t embeddings_found = 0;
  /// Successful work-steal operations in parallel search.
  uint64_t work_steals = 0;

  SearchStats& operator+=(const SearchStats& other) {
    recursive_calls += other.recursive_calls;
    candidates_examined += other.candidates_examined;
    signature_checks += other.signature_checks;
    pruned_by_signature += other.pruned_by_signature;
    score_sorts += other.score_sorts;
    embeddings_found += other.embeddings_found;
    work_steals += other.work_steals;
    return *this;
  }
};

/// Terminal state of one node evaluation / enumeration run.
enum class Outcome {
  /// A full embedding mapping the pivot to the candidate exists.
  kValid,
  /// The search space was exhausted with no embedding.
  kInvalid,
  /// The deadline expired before a decision was reached.
  kTimeout,
  /// An external StopToken cancelled the search (two-threaded baseline).
  kStopped,
};

}  // namespace psi::match

#endif  // SMARTPSI_MATCH_SEARCH_STATS_H_

#ifndef POWER_BLOCKING_PAIR_GENERATOR_H_
#define POWER_BLOCKING_PAIR_GENERATOR_H_

#include <utility>
#include <vector>

#include "data/table.h"
#include "sim/feature_cache.h"

namespace power {

/// Pruning stage (paper §2.2 / §7.1): only pairs whose record-level Jaccard
/// similarity reaches `tau` are kept as graph vertices; everything below is
/// assumed non-matching without asking the crowd.
///
/// Enumerates all n*(n-1)/2 pairs over the cached record-level token-id
/// spans. Fine for Restaurant/Cora-sized tables; use PrefixFilterJoin for
/// ACMPub scale.
std::vector<std::pair<int, int>> AllPairsCandidates(
    const FeatureCache& features, double tau);

/// Convenience wrapper: builds a FeatureCache and runs the cached scan.
std::vector<std::pair<int, int>> AllPairsCandidates(const Table& table,
                                                    double tau);

/// Candidate generation method selector used by the pipeline config.
enum class CandidateMethod {
  kAllPairs,
  kPrefixJoin,
  /// Dispatch by record count: tables with more than
  /// CandidateOptions::all_pairs_cutoff records use the prefix join,
  /// smaller ones the all-pairs scan. Safe as a blanket default because the
  /// two methods return the *same sorted pair vector* (blocking_test proves
  /// equality), so the dispatch only ever changes wall time, never results.
  kAuto,
};

const char* CandidateMethodName(CandidateMethod method);

/// Tuning knobs for GenerateCandidates.
struct CandidateOptions {
  /// kAuto record-count threshold: n <= cutoff scans all pairs, n > cutoff
  /// runs the prefix join. The default is where the quadratic scan's cost
  /// overtakes the join's ranking/indexing overhead on the synthetic ACMPub
  /// profile (~a few ms either way at the boundary — the dispatch only needs
  /// to be right in the asymptotes, small tables stay on the cache-friendly
  /// scan and 100k-record tables never enumerate 5B pairs).
  size_t all_pairs_cutoff = 2048;
};

/// What GenerateCandidates actually did (for PowerResult / bench reporting).
struct CandidateStats {
  /// The method that ran — never kAuto.
  CandidateMethod resolved = CandidateMethod::kAllPairs;
};

/// Dispatches to AllPairsCandidates or PrefixFilterJoin by `method` and
/// `options` (see CandidateMethod::kAuto). Reports the taken path via
/// `stats` (optional) and, when the POWER_VERBOSE environment variable is
/// set non-empty (and not "0"), on stderr.
std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method,
    const CandidateOptions& options, CandidateStats* stats = nullptr);

/// Back-compat form: default options, no stats.
std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method);

/// Convenience wrapper: builds a FeatureCache and dispatches.
std::vector<std::pair<int, int>> GenerateCandidates(const Table& table,
                                                    double tau,
                                                    CandidateMethod method);

}  // namespace power

#endif  // POWER_BLOCKING_PAIR_GENERATOR_H_

#ifndef POWER_BLOCKING_PREFIX_JOIN_H_
#define POWER_BLOCKING_PREFIX_JOIN_H_

#include <utility>
#include <vector>

#include "data/table.h"
#include "sim/feature_cache.h"

namespace power {

/// Set-similarity self-join: returns all record pairs whose record-level
/// word-token Jaccard similarity is >= tau, without enumerating the quadratic
/// pair space.
///
/// This is the substrate the paper needs at ACMPub scale (66,879 records ->
/// 2.2B raw pairs, pruned to 204K). Implements the AllPairs/PPJoin family of
/// filters over the cache's record-level token-id spans and shared
/// dictionary:
///  - global-frequency token ordering (rare tokens first),
///  - prefix filter: records can only reach tau if they share a token within
///    the first |x| - ceil(tau*|x|) + 1 tokens,
///  - length filter: |y| >= tau * |x|,
///  - merge-based verification of the exact Jaccard.
///
/// The result is identical (up to order) to AllPairsCandidates(features, tau).
std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  double tau);

/// Convenience wrapper: builds a FeatureCache and joins.
std::vector<std::pair<int, int>> PrefixFilterJoin(const Table& table,
                                                  double tau);

}  // namespace power

#endif  // POWER_BLOCKING_PREFIX_JOIN_H_

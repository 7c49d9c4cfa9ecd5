#ifndef POWER_REFERENCE_SIMILARITY_H_
#define POWER_REFERENCE_SIMILARITY_H_

#include <string_view>

#include "data/table.h"
#include "sim/pair.h"

namespace power {

/// Levenshtein edit distance (insert / delete / substitute, unit costs) by
/// the textbook DP: O(|a|*|b|) time, O(min(|a|,|b|)) space. The reference
/// MyersEditDistance and the batched SIMD kernels are fuzzed against.
size_t EditDistance(std::string_view a, std::string_view b);

/// The string front end's per-pair similarity vector: every attribute's
/// configured function applied to the raw values, tokenizing and
/// lower-casing on every call, components below `component_floor` clamped
/// to 0, i < j on output. The differential reference for the cached
/// ComputePairSimilarities (tests/feature_cache_test.cc).
SimilarPair ComputePairSimilarity(const Table& table, int i, int j,
                                  double component_floor);

}  // namespace power

#endif  // POWER_REFERENCE_SIMILARITY_H_

#ifndef POWER_SIM_SIMILARITY_MATRIX_H_
#define POWER_SIM_SIMILARITY_MATRIX_H_

#include <vector>

#include "data/table.h"
#include "sim/feature_cache.h"
#include "sim/pair.h"

namespace power {

/// Computes the per-attribute similarity vector of every candidate pair over
/// cached features, using the similarity function configured on each
/// attribute (paper §3.1). Components below `component_floor` (the
/// per-attribute bound τ in Table 2's "if s_ij^k < τ we set s_ij^k = 0") are
/// clamped to 0. Each output pair has i < j.
std::vector<SimilarPair> ComputePairSimilarities(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor);

/// Record-level similarity used for pruning (paper §7.1): word-token Jaccard
/// over the concatenation of all attribute values. String path (it
/// concatenates and tokenizes per call): the crowd simulators call it once
/// per question, where building a FeatureCache would cost more; it is also
/// the differential reference for the cached overload below.
double RecordLevelJaccard(const Table& table, int i, int j);

/// Cached-feature variant: Jaccard of the two record-level token-id spans.
double RecordLevelJaccard(const FeatureCache& features, int i, int j);

}  // namespace power

#endif  // POWER_SIM_SIMILARITY_MATRIX_H_

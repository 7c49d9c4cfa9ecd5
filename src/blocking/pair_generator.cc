#include "blocking/pair_generator.h"

#include <cstdio>
#include <span>
#include <utility>

#include "blocking/prefix_join.h"
#include "sim/simd_kernels.h"
#include "sim/similarity_matrix.h"
#include "util/check.h"
#include "util/env.h"
#include "util/parallel.h"

namespace power {

std::vector<std::pair<int, int>> AllPairsCandidates(
    const FeatureCache& features, double tau) {
  // RecordJaccardAtLeast is true for every pair at tau <= 0 and false for
  // every pair at NaN; reject both (and tau > 1) as the join does.
  POWER_CHECK(tau > 0.0 && tau <= 1.0);
  // Row-sharded over the pool. Chunks cover ascending i-ranges and their
  // buffers are concatenated in chunk order, so the output ordering is
  // exactly the serial loop's ((i asc, j asc)) at any thread count.
  //
  // The inner loop is the record-level Jaccard prune: the row's span is
  // hoisted, the intersection count comes from the dispatched kernel
  // (scalar or AVX2 — identical integers), and the threshold decision is
  // the shared RecordJaccardAtLeast predicate, i.e. exactly
  // RecordLevelJaccard(features, i, j) >= tau.
  constexpr int64_t kRowGrain = 16;
  const int n = static_cast<int>(features.num_records());
  std::vector<std::vector<std::pair<int, int>>> found(
      NumChunks(0, n, kRowGrain));
  ParallelForChunked(
      0, n, kRowGrain, [&](size_t chunk, int64_t row_begin, int64_t row_end) {
        auto& buf = found[chunk];
        for (int i = static_cast<int>(row_begin);
             i < static_cast<int>(row_end); ++i) {
          const std::span<const int32_t> ri =
              features.RecordTokenIds(static_cast<size_t>(i));
          for (int j = i + 1; j < n; ++j) {
            const std::span<const int32_t> rj =
                features.RecordTokenIds(static_cast<size_t>(j));
            const size_t inter = SortedIntersectionSizeKernel(ri, rj);
            if (RecordJaccardAtLeast(inter, ri.size(), rj.size(), tau)) {
              buf.emplace_back(i, j);
            }
          }
        }
      });
  std::vector<std::pair<int, int>> out;
  for (auto& buf : found) {
    out.insert(out.end(), buf.begin(), buf.end());
  }
  return out;
}

const char* CandidateMethodName(CandidateMethod method) {
  switch (method) {
    case CandidateMethod::kAllPairs:
      return "AllPairs";
    case CandidateMethod::kPrefixJoin:
      return "PrefixJoin";
    case CandidateMethod::kAuto:
      return "Auto";
  }
  return "?";
}

std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method,
    const CandidateOptions& options, CandidateStats* stats) {
  CandidateMethod resolved = method;
  if (resolved == CandidateMethod::kAuto) {
    resolved = features.num_records() > options.all_pairs_cutoff
                   ? CandidateMethod::kPrefixJoin
                   : CandidateMethod::kAllPairs;
  }
  std::vector<std::pair<int, int>> out =
      resolved == CandidateMethod::kAllPairs
          ? AllPairsCandidates(features, tau)
          : PrefixFilterJoin(features, tau);
  if (EnvVerbose()) {
    std::fprintf(stderr,
                 "power: candidates: method=%s resolved=%s records=%zu "
                 "pairs=%zu\n",
                 CandidateMethodName(method), CandidateMethodName(resolved),
                 features.num_records(), out.size());
  }
  if (stats != nullptr) stats->resolved = resolved;
  return out;
}

std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method) {
  return GenerateCandidates(features, tau, method, CandidateOptions{});
}

}  // namespace power

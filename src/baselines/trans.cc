#include "baselines/trans.h"

#include <algorithm>
#include <unordered_set>

#include "baselines/cluster_state.h"
#include "sim/similarity_matrix.h"

namespace power {

ErResult RunTrans(const Table& table,
                  const std::vector<std::pair<int, int>>& candidates,
                  PairOracle* oracle) {
  ErResult result;
  FeatureCache features(table);

  // Descending record-level similarity: likely-matching pairs first maximize
  // the inference yield of transitivity (the Trans paper's ordering).
  std::vector<std::pair<double, size_t>> order;
  order.reserve(candidates.size());
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    const auto& [i, j] = candidates[idx];
    order.push_back({RecordLevelJaccard(features, i, j), idx});
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  ClusterState clusters(static_cast<int>(table.num_records()));
  std::vector<bool> done(candidates.size(), false);
  size_t remaining = candidates.size();

  while (remaining > 0) {
    // Build one parallel batch: pairs currently uninferable whose records do
    // not overlap with earlier batch members.
    std::vector<size_t> batch;
    std::unordered_set<int> touched;
    for (const auto& [sim, idx] : order) {
      if (done[idx]) continue;
      const auto& [i, j] = candidates[idx];
      if (clusters.Infer(i, j) != ClusterState::Inference::kUnknown) continue;
      if (touched.count(i) > 0 || touched.count(j) > 0) continue;
      batch.push_back(idx);
      touched.insert(i);
      touched.insert(j);
    }

    if (batch.empty()) {
      // Everything left is inferable; settle it without asking.
      for (const auto& [sim, idx] : order) {
        if (!done[idx]) {
          done[idx] = true;
          --remaining;
        }
      }
      break;
    }
    ++result.iterations;
    for (size_t idx : batch) {
      const auto& [i, j] = candidates[idx];
      const VoteResult vote = oracle->Ask(i, j);
      ++result.questions;
      if (vote.majority_yes()) {
        clusters.Union(i, j);
      } else {
        clusters.MarkDifferent(i, j);
      }
      done[idx] = true;
      --remaining;
    }
    // Pairs that just became inferable are settled for free.
    for (const auto& [sim, idx] : order) {
      if (done[idx]) continue;
      const auto& [i, j] = candidates[idx];
      if (clusters.Infer(i, j) != ClusterState::Inference::kUnknown) {
        done[idx] = true;
        --remaining;
      }
    }
  }

  result.matched_pairs = clusters.MatchedPairs();
  return result;
}

}  // namespace power

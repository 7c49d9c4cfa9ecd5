#include "baselines/gcer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/cluster_state.h"
#include "sim/similarity_matrix.h"

namespace power {
namespace {

double Entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

}  // namespace

ErResult RunGcer(const Table& table,
                 const std::vector<std::pair<int, int>>& candidates,
                 PairOracle* oracle, const GcerConfig& config) {
  ErResult result;
  const int n = static_cast<int>(table.num_records());
  size_t budget =
      config.budget == 0 ? candidates.size() : config.budget;

  // Match probability prior from record similarity; degree = how many
  // candidate pairs a record participates in (connectivity: answering a
  // well-connected pair resolves more pairs via transitivity).
  FeatureCache features(table);
  std::vector<double> prob(candidates.size());
  std::vector<int> degree(n, 0);
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    const auto& [i, j] = candidates[idx];
    prob[idx] = std::clamp(RecordLevelJaccard(features, i, j), 0.02, 0.98);
    ++degree[i];
    ++degree[j];
  }

  std::vector<size_t> order(candidates.size());
  for (size_t idx = 0; idx < candidates.size(); ++idx) order[idx] = idx;
  std::vector<double> score(candidates.size());
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    const auto& [i, j] = candidates[idx];
    score[idx] =
        Entropy(prob[idx]) * (1.0 + std::log1p(degree[i] + degree[j]));
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });

  ClusterState clusters(n);
  size_t cursor = 0;
  size_t per_iteration = config.per_iteration;
  if (config.max_iterations > 0) {
    per_iteration = std::max(per_iteration,
                             (budget + config.max_iterations - 1) /
                                 config.max_iterations);
  }
  while (result.questions < budget && cursor < order.size()) {
    ++result.iterations;
    size_t in_batch = 0;
    while (in_batch < per_iteration && result.questions < budget &&
           cursor < order.size()) {
      size_t idx = order[cursor++];
      const auto& [i, j] = candidates[idx];
      const VoteResult vote = oracle->Ask(i, j);
      ++result.questions;
      ++in_batch;
      if (vote.majority_yes()) {
        clusters.Union(i, j);
      } else {
        clusters.MarkDifferent(i, j);
      }
      prob[idx] = vote.majority_yes() ? 1.0 : 0.0;
    }
  }

  // Resolution: transitive closure of YES answers; unasked/unresolved pairs
  // fall back to the probability estimate.
  result.matched_pairs = clusters.MatchedPairs();
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    const auto& [i, j] = candidates[idx];
    if (clusters.Infer(i, j) == ClusterState::Inference::kUnknown &&
        prob[idx] > 0.5) {
      result.matched_pairs.insert(PairKey(i, j));
    }
  }
  return result;
}

}  // namespace power

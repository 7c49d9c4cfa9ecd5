#include "baselines/acd.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/similarity_matrix.h"
#include "util/rng.h"

namespace power {
namespace {

struct Edge {
  int other;
  double weight;
};

// Pivot correlation clustering with local-move refinement. Crowd answers are
// the dominant edge weights; similarity priors only nudge unasked pairs.
class CorrelationClustering {
 public:
  CorrelationClustering(int num_records, uint64_t seed)
      : num_records_(num_records), rng_(seed) {}

  void SetEdge(int i, int j, double weight) {
    adj_[i].push_back({j, weight});
    adj_[j].push_back({i, weight});
  }

  void Clear() { adj_.clear(); }

  /// Returns cluster id per record.
  std::vector<int> Cluster(int refine_passes) {
    std::vector<int> cluster(num_records_, -1);
    std::vector<int> order(num_records_);
    for (int i = 0; i < num_records_; ++i) order[i] = i;
    rng_.Shuffle(&order);

    // Pivot pass.
    int next_cluster = 0;
    for (int pivot : order) {
      if (cluster[pivot] != -1) continue;
      int c = next_cluster++;
      cluster[pivot] = c;
      auto it = adj_.find(pivot);
      if (it == adj_.end()) continue;
      for (const Edge& e : it->second) {
        if (cluster[e.other] == -1 && e.weight > 0) cluster[e.other] = c;
      }
    }
    // Local moves: re-assign each record to the adjacent cluster with the
    // highest total edge weight (or a fresh singleton if all are negative).
    for (int pass = 0; pass < refine_passes; ++pass) {
      bool moved = false;
      for (int v : order) {
        auto it = adj_.find(v);
        if (it == adj_.end()) continue;
        // Aggregate per-cluster gains by sorting the incident entries on
        // cluster id: both the fp summation order and the winner of a
        // gain tie are then pure functions of the input (a hash map here
        // would break both on ties / reordered buckets).
        gain_scratch_.clear();
        for (const Edge& e : it->second) {
          if (cluster[e.other] != -1) {
            gain_scratch_.push_back({cluster[e.other], e.weight});
          }
        }
        std::sort(gain_scratch_.begin(), gain_scratch_.end(),
                  [](const std::pair<int, double>& a,
                     const std::pair<int, double>& b) {
                    return a.first < b.first;
                  });
        int best_cluster = next_cluster;  // fresh singleton
        double best_gain = 0.0;
        for (size_t i = 0; i < gain_scratch_.size();) {
          size_t j = i;
          double g = 0.0;
          while (j < gain_scratch_.size() &&
                 gain_scratch_[j].first == gain_scratch_[i].first) {
            g += gain_scratch_[j].second;
            ++j;
          }
          if (g > best_gain) {
            best_gain = g;
            best_cluster = gain_scratch_[i].first;
          }
          i = j;
        }
        if (best_cluster != cluster[v]) {
          if (best_cluster == next_cluster) ++next_cluster;
          cluster[v] = best_cluster;
          moved = true;
        }
      }
      if (!moved) break;
    }
    return cluster;
  }

 private:
  int num_records_;
  Rng rng_;
  std::unordered_map<int, std::vector<Edge>> adj_;  // lookup-only (no iteration)
  std::vector<std::pair<int, double>> gain_scratch_;
};

}  // namespace

ErResult RunAcd(const Table& table,
                const std::vector<std::pair<int, int>>& candidates,
                PairOracle* oracle, const AcdConfig& config) {
  ErResult result;
  const int n = static_cast<int>(table.num_records());
  FeatureCache features(table);

  std::vector<double> sim(candidates.size());
  std::vector<size_t> by_uncertainty(candidates.size());
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    sim[idx] = RecordLevelJaccard(features, candidates[idx].first,
                                  candidates[idx].second);
    by_uncertainty[idx] = idx;
  }
  // Boundary-first: pairs whose similarity is closest to the match/non-match
  // decision boundary carry the most information per dollar (ACD's benefit
  // model); trivially-high and trivially-low pairs are deferred.
  std::sort(by_uncertainty.begin(), by_uncertainty.end(),
            [&](size_t a, size_t b) {
              double ua = std::abs(sim[a] - 0.5);
              double ub = std::abs(sim[b] - 0.5);
              if (ua != ub) return ua < ub;
              return a < b;
            });

  // answered[idx]: -1 unasked, 0 NO, 1 YES; conf in [0.5, 1].
  std::vector<int> answered(candidates.size(), -1);
  std::vector<double> conf(candidates.size(), 0.0);

  CorrelationClustering cc(n, config.seed);
  auto recluster = [&]() {
    cc.Clear();
    for (size_t idx = 0; idx < candidates.size(); ++idx) {
      const auto& [i, j] = candidates[idx];
      double w;
      if (answered[idx] == 1) {
        w = conf[idx];
      } else if (answered[idx] == 0) {
        w = -conf[idx];
      } else {
        w = 0.4 * (sim[idx] - 0.5);  // weak prior
      }
      cc.SetEdge(i, j, w);
    }
    return cc.Cluster(config.refine_passes);
  };

  std::vector<int> cluster = recluster();
  int stable = 0;
  size_t batch_size = std::max(
      config.min_batch,
      (candidates.size() + config.target_iterations - 1) /
          config.target_iterations);

  // Number of asked pairs touching each record: ACD verifies clusters with
  // a bounded number of questions per member rather than the full clique
  // (this is what keeps its cost at a fraction of the pair count on
  // cluster-heavy datasets like Cora/ACMPub, as in the paper).
  std::vector<int> asked_degree(n, 0);

  while (true) {
    // Uncertain pairs: cross-cluster pairs similar enough that a silent NO
    // cannot be trusted, plus same-cluster pairs whose endpoints still lack
    // direct crowd evidence.
    std::vector<size_t> batch;
    for (size_t idx : by_uncertainty) {
      if (answered[idx] != -1) continue;
      const auto& [i, j] = candidates[idx];
      bool same_cluster = cluster[i] == cluster[j];
      bool uncertain =
          same_cluster ? (asked_degree[i] < 3 || asked_degree[j] < 3)
                       : sim[idx] >= config.uncertain_floor;
      if (uncertain) {
        batch.push_back(idx);
        if (batch.size() >= batch_size) break;
      }
    }
    if (batch.empty()) break;

    ++result.iterations;
    size_t disagreements = 0;
    for (size_t idx : batch) {
      const auto& [i, j] = candidates[idx];
      const VoteResult vote = oracle->Ask(i, j);
      ++result.questions;
      answered[idx] = vote.majority_yes() ? 1 : 0;
      conf[idx] = vote.confidence();
      ++asked_degree[i];
      ++asked_degree[j];
      if (vote.majority_yes() != (cluster[i] == cluster[j])) {
        ++disagreements;
      }
    }
    cluster = recluster();
    // ACD's adaptive convergence: once whole batches of answers agree with
    // what the clustering already predicts, additional questions carry no
    // information and the refinement stops (the paper's partial coverage on
    // Cora / ACMPub).
    if (disagreements == 0) {
      if (++stable >= config.stable_rounds) break;
    } else {
      stable = 0;
    }
  }

  // Cluster ids are dense-ish small ints from the clustering's counter, so a
  // plain vector indexed by id gives a deterministic member walk.
  int max_cluster = -1;
  for (int v = 0; v < n; ++v) max_cluster = std::max(max_cluster, cluster[v]);
  std::vector<std::vector<int>> members(static_cast<size_t>(max_cluster + 1));
  for (int v = 0; v < n; ++v) {
    members[static_cast<size_t>(cluster[v])].push_back(v);
  }
  for (const auto& records : members) {
    for (size_t a = 0; a < records.size(); ++a) {
      for (size_t b = a + 1; b < records.size(); ++b) {
        result.matched_pairs.insert(PairKey(records[a], records[b]));
      }
    }
  }
  return result;
}

}  // namespace power

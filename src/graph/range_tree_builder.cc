#include <algorithm>
#include <set>
#include <utility>

#include "graph/builder.h"
#include "graph/range_tree.h"
#include "order/partial_order.h"
#include "util/check.h"

namespace power {
namespace {

// Vertices per ParallelFor chunk of the query loop. Each query is
// O(log^2 n + k), so chunks stay small enough for dynamic balancing.
constexpr int64_t kQueryGrain = 64;

// Picks the two attributes with the most distinct values: the most selective
// dimensions make the 2-d index filter hardest (fewest false candidates to
// verify on the remaining attributes). A single attribute is indexed twice.
std::pair<int, int> PickIndexDims(
    const std::vector<std::vector<double>>& sims) {
  size_t m = sims.empty() ? 0 : sims[0].size();
  POWER_CHECK(m >= 1);
  if (m == 1) return {0, 0};
  std::vector<std::pair<size_t, int>> distinct;  // (#distinct values, dim)
  for (size_t k = 0; k < m; ++k) {
    std::set<double> values;
    for (const auto& s : sims) values.insert(s[k]);
    distinct.push_back({values.size(), static_cast<int>(k)});
  }
  std::sort(distinct.begin(), distinct.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  return {distinct[0].second, distinct[1].second};
}

}  // namespace

PairGraph RangeTreeBuilder::Build(
    const std::vector<std::vector<double>>& sims) const {
  if (sims.empty()) return PairGraph(0, {});
  const std::pair<int, int> dims = PickIndexDims(sims);
  const size_t d1 = static_cast<size_t>(dims.first);
  const size_t d2 = static_cast<size_t>(dims.second);

  RangeTree2d tree;
  std::vector<RangeTree2d::Point> points;
  points.reserve(sims.size());
  for (size_t v = 0; v < sims.size(); ++v) {
    points.push_back({sims[v][d1], sims[v][d2], static_cast<int>(v)});
  }
  tree.Build(std::move(points));

  // For each vertex, report the candidates it weakly dominates on the two
  // indexed attributes, then verify strict dominance on the full vector.
  // Queries only read the tree, so the loop shards over the pool.
  return BuildByRowChunks(
      sims.size(), kQueryGrain,
      [&](int64_t begin, int64_t end, EdgeList* buf) {
        std::vector<int> candidates;
        for (int64_t v = begin; v < end; ++v) {
          const std::vector<double>& s = sims[static_cast<size_t>(v)];
          candidates.clear();
          tree.QueryDominated(s[d1], s[d2], &candidates);
          for (int c : candidates) {
            if (c == static_cast<int>(v)) continue;
            if (StrictlyDominates(s, sims[static_cast<size_t>(c)])) {
              buf->emplace_back(static_cast<int>(v), c);
            }
          }
        }
      });
}

}  // namespace power

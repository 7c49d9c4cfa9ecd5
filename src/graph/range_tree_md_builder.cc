#include <utility>

#include "graph/builder.h"
#include "graph/range_tree_md.h"
#include "order/partial_order.h"

namespace power {

PairGraph RangeTreeMdBuilder::Build(
    const std::vector<std::vector<double>>& sims) const {
  if (sims.empty()) return PairGraph(0, {});

  RangeTreeMd tree;
  tree.Build(std::vector<std::vector<double>>(sims));

  // Queries are read-only; shard them over the pool (same scheme as the 2-d
  // builder — thread-count-independent output).
  constexpr int64_t kQueryGrain = 64;
  return BuildByRowChunks(
      sims.size(), kQueryGrain,
      [&](int64_t begin, int64_t end, EdgeList* buf) {
        std::vector<int> candidates;
        for (int64_t v = begin; v < end; ++v) {
          candidates.clear();
          tree.QueryDominated(sims[static_cast<size_t>(v)], &candidates);
          for (int c : candidates) {
            // Weak dominance is guaranteed by the tree; only equality (and
            // self) must be excluded for a strict edge.
            if (c == static_cast<int>(v)) continue;
            if (StrictlyDominates(sims[static_cast<size_t>(v)],
                                  sims[static_cast<size_t>(c)])) {
              buf->emplace_back(static_cast<int>(v), c);
            }
          }
        }
      });
}

}  // namespace power

#include "group/grouped_graph.h"

#include <cstdint>
#include <utility>

#include "order/partial_order.h"

namespace power {

GroupedGraph BuildGroupedGraph(std::vector<VertexGroup> groups) {
  constexpr int64_t kRowGrain = 16;
  const int x = static_cast<int>(groups.size());
  GroupedGraph out;
  out.graph = BuildByRowChunks(
      groups.size(), kRowGrain, [&](int64_t begin, int64_t end, EdgeList* buf) {
        for (int a = static_cast<int>(begin); a < static_cast<int>(end); ++a) {
          for (int b = 0; b < x; ++b) {
            if (a == b) continue;
            if (GroupStrictlyDominates(groups[a].lower, groups[b].upper)) {
              buf->emplace_back(a, b);
            }
          }
        }
      });
  out.groups = std::move(groups);
  return out;
}

GroupedGraph BuildUngrouped(const GraphBuilder& builder,
                            const std::vector<std::vector<double>>& sims) {
  GroupedGraph out;
  out.groups = SingletonGroups(sims);
  out.graph = builder.Build(sims);
  return out;
}

}  // namespace power

#include "reference/boundary.h"

#include "util/check.h"

namespace power {

std::vector<int> BoundaryVertices(const PairGraph& graph,
                                  const std::vector<bool>& green) {
  POWER_CHECK(green.size() == graph.num_vertices());
  std::vector<int> boundary;
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    bool deducible = false;
    if (green[v]) {
      for (int c : graph.children(static_cast<int>(v))) {
        if (green[c]) {
          deducible = true;
          break;
        }
      }
    } else {
      for (int p : graph.parents(static_cast<int>(v))) {
        if (!green[p]) {
          deducible = true;
          break;
        }
      }
    }
    if (!deducible) boundary.push_back(static_cast<int>(v));
  }
  return boundary;
}

size_t CountBoundaryVertices(const PairGraph& graph,
                             const std::vector<bool>& green) {
  return BoundaryVertices(graph, green).size();
}

}  // namespace power

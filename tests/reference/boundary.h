#ifndef POWER_REFERENCE_BOUNDARY_H_
#define POWER_REFERENCE_BOUNDARY_H_

#include <vector>

#include "graph/pair_graph.h"

namespace power {

/// Boundary vertices (Definition 9): vertices whose ground-truth color
/// cannot be deduced from the colors of other vertices. Every algorithm must
/// ask at least these (§5.1), so their count is the information-theoretic
/// floor on crowd questions for a given graph + ground truth.
///
/// With the full dominance relation materialized (as the builders emit),
/// a GREEN vertex is deducible iff it has a GREEN child, and a RED vertex
/// iff it has a RED parent; boundary vertices are the rest.
///
/// `green[v]` is the ground-truth color of vertex v.
std::vector<int> BoundaryVertices(const PairGraph& graph,
                                  const std::vector<bool>& green);

size_t CountBoundaryVertices(const PairGraph& graph,
                             const std::vector<bool>& green);

}  // namespace power

#endif  // POWER_REFERENCE_BOUNDARY_H_

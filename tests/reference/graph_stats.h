#ifndef POWER_REFERENCE_GRAPH_STATS_H_
#define POWER_REFERENCE_GRAPH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/pair_graph.h"

namespace power {

/// All vertices reachable from v via child edges (v excluded), ascending.
std::vector<int> Descendants(const PairGraph& graph, int v);
/// All vertices reachable from v via parent edges (v excluded), ascending.
std::vector<int> Ancestors(const PairGraph& graph, int v);

/// Kahn peeling over the subgraph induced by `active` vertices: level L1 =
/// zero in-degree vertices, L2 = zero in-degree after removing L1, ...
/// (paper §5.3.2). `active.size()` must equal graph.num_vertices(). The
/// reference for TopoSortSelector's incremental peel.
std::vector<std::vector<int>> TopologicalLevels(
    const PairGraph& graph, const std::vector<bool>& active);

/// True iff the edge relation has no directed cycle.
bool IsAcyclic(const PairGraph& graph);

/// Structural statistics of a partial-order graph — the quantities the
/// paper's analysis sections reason about (comparability fraction in
/// Appendix E.1.1, height = topological levels, width B of §5.2).
struct GraphStats {
  size_t vertices = 0;
  size_t edges = 0;
  /// Fraction of vertex pairs that are comparable (paper: 16-30% on the
  /// real datasets).
  double comparable_fraction = 0.0;
  /// Number of topological levels (length of the longest chain).
  size_t height = 0;
  /// Dilworth width (minimum path cover size / maximum antichain).
  size_t width = 0;
  /// Vertices with no parents / no children.
  size_t sources = 0;
  size_t sinks = 0;
};

GraphStats ComputeGraphStats(const PairGraph& graph);

/// Edges of the transitive reduction (Hasse diagram): an edge u -> v of the
/// full dominance relation is kept iff no intermediate w has u -> w -> v.
/// This is the graph the paper's Figure 1 actually draws ("if there is
/// already a path between them, we do not show the direct edge").
std::vector<std::pair<int, int>> TransitiveReduction(const PairGraph& graph);

/// Graphviz DOT rendering of the transitive reduction, with optional vertex
/// labels (defaults to indices). Useful for inspecting small graphs like
/// the running example.
std::string ToDot(const PairGraph& graph,
                  const std::vector<std::string>& labels = {});

}  // namespace power

#endif  // POWER_REFERENCE_GRAPH_STATS_H_

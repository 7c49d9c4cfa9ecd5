#include "reference/graph_stats.h"

#include <algorithm>

#include "select/path_cover.h"
#include "util/check.h"

namespace power {

GraphStats ComputeGraphStats(const PairGraph& graph) {
  GraphStats stats;
  stats.vertices = graph.num_vertices();
  stats.edges = graph.num_edges();
  if (stats.vertices == 0) return stats;

  // With the full dominance relation materialized, every comparable pair is
  // a direct edge.
  size_t total_pairs = stats.vertices * (stats.vertices - 1) / 2;
  stats.comparable_fraction =
      total_pairs == 0 ? 0.0
                       : static_cast<double>(stats.edges) / total_pairs;

  stats.height =
      graph.TopologicalLevels(std::vector<bool>(stats.vertices, true)).size();
  stats.width = MinimumPathCover(graph).size();
  for (size_t v = 0; v < stats.vertices; ++v) {
    if (graph.parents(static_cast<int>(v)).empty()) ++stats.sources;
    if (graph.children(static_cast<int>(v)).empty()) ++stats.sinks;
  }
  return stats;
}

std::vector<std::pair<int, int>> TransitiveReduction(const PairGraph& graph) {
  std::vector<std::pair<int, int>> reduced;
  for (size_t u = 0; u < graph.num_vertices(); ++u) {
    const auto& children = graph.children(static_cast<int>(u));
    for (int v : children) {
      // u -> v is redundant iff some other child w of u reaches v.
      bool redundant = false;
      for (int w : children) {
        if (w == v) continue;
        const auto& grand = graph.children(w);
        // Full-relation graphs have w -> v directly whenever w reaches v.
        if (std::find(grand.begin(), grand.end(), v) != grand.end()) {
          redundant = true;
          break;
        }
      }
      if (!redundant) reduced.push_back({static_cast<int>(u), v});
    }
  }
  return reduced;
}

std::string ToDot(const PairGraph& graph,
                  const std::vector<std::string>& labels) {
  POWER_CHECK(labels.empty() || labels.size() == graph.num_vertices());
  std::string dot = "digraph partial_order {\n  rankdir=TB;\n";
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    dot += "  n" + std::to_string(v) + " [label=\"" +
           (labels.empty() ? std::to_string(v) : labels[v]) + "\"];\n";
  }
  for (const auto& [u, v] : TransitiveReduction(graph)) {
    dot += "  n" + std::to_string(u) + " -> n" + std::to_string(v) + ";\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace power

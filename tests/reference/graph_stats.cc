#include "reference/graph_stats.h"

#include <algorithm>
#include <utility>

#include "select/path_cover.h"
#include "util/check.h"

namespace power {
namespace {

// Reachability over one adjacency direction; ascending output.
template <typename AdjFn>
std::vector<int> Reachable(size_t n, int start, AdjFn adj) {
  std::vector<int> out;
  std::vector<bool> visited(n, false);
  std::vector<int> stack = {start};
  visited[start] = true;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (int u : adj(v)) {
      if (!visited[u]) {
        visited[u] = true;
        out.push_back(u);
        stack.push_back(u);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<int> Descendants(const PairGraph& graph, int v) {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < graph.num_vertices());
  return Reachable(graph.num_vertices(), v,
                   [&](int u) { return graph.children(u); });
}

std::vector<int> Ancestors(const PairGraph& graph, int v) {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < graph.num_vertices());
  return Reachable(graph.num_vertices(), v,
                   [&](int u) { return graph.parents(u); });
}

std::vector<std::vector<int>> TopologicalLevels(
    const PairGraph& graph, const std::vector<bool>& active) {
  const size_t n = graph.num_vertices();
  POWER_CHECK(active.size() == n);
  std::vector<int> indegree(n, 0);
  std::vector<int> frontier;
  for (size_t v = 0; v < n; ++v) {
    if (!active[v]) continue;
    for (int p : graph.parents(static_cast<int>(v))) {
      if (active[p]) ++indegree[v];
    }
    if (indegree[v] == 0) frontier.push_back(static_cast<int>(v));
  }
  std::vector<std::vector<int>> levels;
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    levels.push_back(frontier);
    std::vector<int> next;
    for (int v : frontier) {
      for (int c : graph.children(v)) {
        if (active[c] && --indegree[c] == 0) next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
  return levels;
}

bool IsAcyclic(const PairGraph& graph) {
  const size_t n = graph.num_vertices();
  size_t covered = 0;
  for (const auto& level :
       TopologicalLevels(graph, std::vector<bool>(n, true))) {
    covered += level.size();
  }
  return covered == n;
}

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
      TopologicalLevels(graph, std::vector<bool>(stats.vertices, true)).size();
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

#ifndef POWER_GRAPH_PAIR_GRAPH_H_
#define POWER_GRAPH_PAIR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace power {

/// One buffer of (parent, child) edges.
using EdgeList = std::vector<std::pair<int, int>>;

/// The directed acyclic graph of the partial-order framework (Definition 2).
/// Vertex v is a pair (or a group of pairs); an edge parent -> child means
/// parent ≻ child (the parent pair dominates the child pair).
///
/// The graph builders emit the *full* dominance relation (an edge for every
/// comparable vertex pair), i.e. the transitive closure. Question selection
/// (Dilworth path cover) and O(1)-hop propagation both rely on this.
///
/// The graph is immutable: the constructor takes the builders' per-chunk
/// edge buffers, checks every endpoint, deduplicates, and lays out two CSR
/// (offset + flat edge array) adjacency forms — children and parents — with
/// parallel counting/scatter/sort passes on the global thread pool
/// (util/parallel.h) whose result is independent of the thread count and of
/// the order and chunking of the input edges. children(v)/parents(v) return
/// sorted spans into the flat arrays. The graph is safe to read from any
/// number of threads without synchronization.
class PairGraph {
 public:
  PairGraph() = default;
  /// Builds the graph over vertices [0, num_vertices) from `edge_chunks`.
  /// Every endpoint must lie in [0, num_vertices) and no edge may be a
  /// self-loop (checked; aborts otherwise). Duplicate edges, within one
  /// chunk or across chunks, are kept once.
  PairGraph(size_t num_vertices, std::vector<EdgeList> edge_chunks);

  size_t num_vertices() const { return num_vertices_; }
  /// Deduplicated edge count.
  size_t num_edges() const { return child_edges_.size(); }

  /// Children of v (vertices v strictly dominates), ascending.
  std::span<const int> children(int v) const {
    CheckVertex(v);
    return {child_edges_.data() + child_off_[v],
            child_edges_.data() + child_off_[v + 1]};
  }
  /// Parents of v (vertices strictly dominating v), ascending.
  std::span<const int> parents(int v) const {
    CheckVertex(v);
    return {parent_edges_.data() + parent_off_[v],
            parent_edges_.data() + parent_off_[v + 1]};
  }

 private:
  void CheckVertex(int v) const;

  size_t num_vertices_ = 0;
  // CSR adjacency: offsets have num_vertices() + 1 entries; edge arrays hold
  // the deduplicated, per-vertex-sorted targets.
  std::vector<int64_t> child_off_;
  std::vector<int> child_edges_;
  std::vector<int64_t> parent_off_;
  std::vector<int> parent_edges_;
};

}  // namespace power

#endif  // POWER_GRAPH_PAIR_GRAPH_H_

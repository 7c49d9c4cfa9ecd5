#ifndef POWER_GRAPH_BUILDER_H_
#define POWER_GRAPH_BUILDER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/pair_graph.h"
#include "sim/pair.h"

namespace power {

/// A graph-construction algorithm (§4.1). All builders produce the same
/// graph: the full strict-dominance relation over the input similarity
/// vectors (edges deduplicated, adjacency sorted). The builders only read
/// `sims`; the graph keeps no copy of them.
///
/// Builders shard their dominance loops over the ParallelFor pool
/// (util/parallel.h) with chunk boundaries independent of the thread count,
/// and the PairGraph constructor canonicalizes the adjacency whatever the
/// edge order — so the built graph is identical at any thread count,
/// including the num_threads == 1 exact serial path.
class GraphBuilder {
 public:
  virtual ~GraphBuilder() = default;
  virtual const char* name() const = 0;
  virtual PairGraph Build(
      const std::vector<std::vector<double>>& sims) const = 0;
};

/// Convenience: extracts the similarity vectors of `pairs` and builds with
/// `builder`.
PairGraph BuildPairGraph(const GraphBuilder& builder,
                         const std::vector<SimilarPair>& pairs);

/// The shared emit path of the row builders (BruteForce, Index, IndexMd and
/// the grouped graph): shards the rows [0, num_vertices) into `grain`-sized
/// chunks on the pool, calls emit_rows(row_begin, row_end, &buf) to append
/// the edges found for those rows to the chunk's own buffer, and builds the
/// graph from the buffers. Chunk boundaries depend only on (num_vertices,
/// grain), so the graph is identical at any thread count.
PairGraph BuildByRowChunks(
    size_t num_vertices, int64_t grain,
    const std::function<void(int64_t, int64_t, EdgeList*)>& emit_rows);

/// §4.1 "Brute-Force Method": compares every vertex pair, O(|V|^2).
class BruteForceBuilder : public GraphBuilder {
 public:
  const char* name() const override { return "BruteForce"; }
  PairGraph Build(const std::vector<std::vector<double>>& sims) const override;
};

/// §4.1 "Quicksort-Based Method": picks a pivot, splits the rest into parent
/// / child / incomparable sets, and derives all parent-x-child edges for free
/// (a ≻ pivot ≻ c implies a ≻ c). Cross pairs touching the incomparable set
/// are resolved by direct comparison, which keeps the recursion duplicate-
/// free and terminating (see DESIGN.md for the note on the paper's pivot
/// footnote). Worst case O(|V|^2), like the paper's variant.
class QuickSortBuilder : public GraphBuilder {
 public:
  explicit QuickSortBuilder(uint64_t seed = 42) : seed_(seed) {}
  const char* name() const override { return "QuickSort"; }
  PairGraph Build(const std::vector<std::vector<double>>& sims) const override;

 private:
  uint64_t seed_;
};

/// §4.1 "Index-Based Method": a layered 2-level range search tree over two
/// indexed attributes answers each dominance-reporting query in
/// O(log^2 |V| + k); reported candidates are verified on the remaining
/// attributes (the paper's Appendix E heuristic for m > 2). The indexed
/// attributes are the two with the most distinct values (most selective
/// index).
class RangeTreeBuilder : public GraphBuilder {
 public:
  const char* name() const override { return "Index"; }
  PairGraph Build(const std::vector<std::vector<double>>& sims) const override;
};

/// Variant of the index-based method using a true m-dimensional range tree
/// (graph/range_tree_md.h): every reported candidate already satisfies weak
/// dominance on all attributes, so only strictness needs checking. Heavier
/// to build (O(|V| log^{m-1} |V|) space) than the 2-d + verify heuristic the
/// paper deploys, but with no false candidates; the ablation bench compares
/// the two.
class RangeTreeMdBuilder : public GraphBuilder {
 public:
  const char* name() const override { return "IndexMd"; }
  PairGraph Build(const std::vector<std::vector<double>>& sims) const override;
};

}  // namespace power

#endif  // POWER_GRAPH_BUILDER_H_

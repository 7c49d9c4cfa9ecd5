#include "graph/pair_graph.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/check.h"
#include "util/parallel.h"

namespace power {
namespace {

// Edges per chunk in the counting / scatter passes of the CSR layout.
constexpr int64_t kEdgeGrain = 8192;
// Vertices per chunk in the per-vertex sort / dedup passes. Degrees vary
// wildly on closure graphs, so chunks are small and claimed dynamically.
constexpr int64_t kVertexGrain = 32;

// The input edge chunks viewed as one flat sequence, so the counting and
// scatter passes shard by edge whatever the chunk sizes are.
class FlatEdges {
 public:
  explicit FlatEdges(const std::vector<EdgeList>& chunks) : chunks_(chunks) {
    starts_.reserve(chunks.size());
    for (const auto& chunk : chunks) {
      starts_.push_back(size_);
      size_ += static_cast<int64_t>(chunk.size());
    }
  }

  int64_t size() const { return size_; }

  // Calls fn(edge) for the flat edges [begin, end), in order.
  template <typename Fn>
  void ForRange(int64_t begin, int64_t end, Fn fn) const {
    // The last chunk starting at or before `begin` holds it.
    size_t c = static_cast<size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), begin) -
        starts_.begin() - 1);
    for (int64_t i = begin; i < end; ++c) {
      const EdgeList& chunk = chunks_[c];
      for (size_t k = static_cast<size_t>(i - starts_[c]);
           k < chunk.size() && i < end; ++k, ++i) {
        fn(chunk[k]);
      }
    }
  }

 private:
  const std::vector<EdgeList>& chunks_;
  std::vector<int64_t> starts_;  // flat index of each chunk's first edge
  int64_t size_ = 0;
};

// Builds one CSR direction from `edges`: key = pair.first when
// keyed_by_parent, else pair.second. Checks every edge's endpoints.
void BuildCsrSide(const FlatEdges& edges, size_t n, bool keyed_by_parent,
                  std::vector<int64_t>* offsets, std::vector<int>* targets) {
  const int64_t num_edges = edges.size();
  const int num_vertices = static_cast<int>(n);

  // Pass 1: per-vertex degree counts. Relaxed atomic increments — addition
  // commutes, so the totals are thread-count independent.
  std::unique_ptr<std::atomic<int64_t>[]> counts(new std::atomic<int64_t>[n]());
  ParallelFor(0, num_edges, kEdgeGrain, [&](int64_t begin, int64_t end) {
    edges.ForRange(begin, end, [&](const std::pair<int, int>& e) {
      const auto& [p, c] = e;
      POWER_CHECK(p >= 0 && p < num_vertices);
      POWER_CHECK(c >= 0 && c < num_vertices);
      POWER_CHECK(p != c);
      counts[keyed_by_parent ? p : c].fetch_add(1, std::memory_order_relaxed);
    });
  });
  std::vector<int64_t> raw_off(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    raw_off[v + 1] = raw_off[v] + counts[v].load(std::memory_order_relaxed);
    counts[v].store(0, std::memory_order_relaxed);  // becomes scatter cursor
  }

  // Pass 2: scatter targets into per-vertex ranges. The order within a range
  // is scheduling-dependent, but pass 3 sorts every range, so the result is
  // deterministic.
  std::vector<int> raw(static_cast<size_t>(num_edges));
  ParallelFor(0, num_edges, kEdgeGrain, [&](int64_t begin, int64_t end) {
    edges.ForRange(begin, end, [&](const std::pair<int, int>& e) {
      const auto& [p, c] = e;
      int key = keyed_by_parent ? p : c;
      int64_t pos =
          raw_off[key] + counts[key].fetch_add(1, std::memory_order_relaxed);
      raw[static_cast<size_t>(pos)] = keyed_by_parent ? c : p;
    });
  });

  // Pass 3: sort + count unique per vertex (dedup sizes reuse `counts`).
  ParallelFor(0, static_cast<int64_t>(n), kVertexGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t v = begin; v < end; ++v) {
                  auto* first = raw.data() + raw_off[v];
                  auto* last = raw.data() + raw_off[v + 1];
                  std::sort(first, last);
                  auto* tail = std::unique(first, last);
                  counts[v].store(tail - first, std::memory_order_relaxed);
                }
              });

  // Final offsets + compaction into the CSR arrays.
  offsets->assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    (*offsets)[v + 1] =
        (*offsets)[v] + counts[v].load(std::memory_order_relaxed);
  }
  targets->assign(static_cast<size_t>((*offsets)[n]), 0);
  ParallelFor(0, static_cast<int64_t>(n), kVertexGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t v = begin; v < end; ++v) {
                  std::copy_n(raw.data() + raw_off[v],
                              (*offsets)[v + 1] - (*offsets)[v],
                              targets->data() + (*offsets)[v]);
                }
              });
}

}  // namespace

PairGraph::PairGraph(size_t num_vertices, std::vector<EdgeList> edge_chunks)
    : num_vertices_(num_vertices) {
  FlatEdges edges(edge_chunks);
  BuildCsrSide(edges, num_vertices, /*keyed_by_parent=*/true, &child_off_,
               &child_edges_);
  BuildCsrSide(edges, num_vertices, /*keyed_by_parent=*/false, &parent_off_,
               &parent_edges_);
  POWER_CHECK(child_edges_.size() == parent_edges_.size());
}

void PairGraph::CheckVertex(int v) const {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < num_vertices_);
}

}  // namespace power

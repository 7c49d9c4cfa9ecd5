#include <algorithm>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "order/partial_order.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace {

// Target comparisons/emissions per chunk when a pivot's cross products are
// sharded over the pool; smaller products form a single chunk and run inline.
constexpr int64_t kParallelWork = 4096;
// Elements per chunk when classifying a set against the pivot.
constexpr int64_t kClassifyGrain = 1024;

class QuickSortBuildState {
 public:
  QuickSortBuildState(const std::vector<std::vector<double>>& sims,
                      uint64_t seed)
      : sims_(sims), rng_(seed) {}

  // Runs the recursion over every vertex and returns its edges.
  EdgeList Run() {
    std::vector<int> all(sims_.size());
    for (size_t v = 0; v < sims_.size(); ++v) all[v] = static_cast<int>(v);
    Recurse(all);
    return std::move(edges_);
  }

 private:
  void Compare(int a, int b, EdgeList* buf) const {
    switch (CompareDominance(sims_[a], sims_[b])) {
      case DomOrder::kDominates:
        buf->emplace_back(a, b);
        break;
      case DomOrder::kDominatedBy:
        buf->emplace_back(b, a);
        break;
      default:
        break;
    }
  }

  // Calls emit(row, col, buf) for every (row, col) in rows x cols, sharded
  // by row into chunks of about kParallelWork pairs; the chunk buffers are
  // appended to edges_ in chunk order.
  template <typename Emit>
  void ForCrossPairs(const std::vector<int>& rows, const std::vector<int>& cols,
                     Emit emit) {
    if (rows.empty() || cols.empty()) return;
    const int64_t grain =
        std::max<int64_t>(1, kParallelWork / static_cast<int64_t>(cols.size()));
    const int64_t n = static_cast<int64_t>(rows.size());
    std::vector<EdgeList> chunks(NumChunks(0, n, grain));
    ParallelForChunked(0, n, grain,
                       [&](size_t chunk, int64_t begin, int64_t end) {
                         EdgeList* buf = &chunks[chunk];
                         for (int64_t i = begin; i < end; ++i) {
                           for (int c : cols) emit(rows[i], c, buf);
                         }
                       });
    for (const EdgeList& chunk : chunks) {
      edges_.insert(edges_.end(), chunk.begin(), chunk.end());
    }
  }

  void Recurse(const std::vector<int>& set) {
    if (set.size() <= 1) return;
    if (set.size() == 2) {
      Compare(set[0], set[1], &edges_);
      return;
    }
    int pivot = set[rng_.UniformIndex(set.size())];
    // Classify everything against the pivot. The pivot draw above happens
    // before any parallel work and the partition below consumes `order` in
    // input order, so the recursion structure — and with it the rng stream —
    // is identical to the serial path at any thread count.
    const int64_t k = static_cast<int64_t>(set.size());
    std::vector<DomOrder> order(set.size());
    ParallelFor(0, k, kClassifyGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        if (set[i] == pivot) continue;  // skipped by the partition loop
        order[i] = CompareDominance(sims_[set[i]], sims_[pivot]);
      }
    });
    std::vector<int> parents;   // ≻ pivot
    std::vector<int> children;  // pivot ≻
    std::vector<int> incomparable;
    for (size_t i = 0; i < set.size(); ++i) {
      int v = set[i];
      if (v == pivot) continue;
      switch (order[i]) {
        case DomOrder::kDominates:
          parents.push_back(v);
          edges_.emplace_back(v, pivot);
          break;
        case DomOrder::kDominatedBy:
          children.push_back(v);
          edges_.emplace_back(pivot, v);
          break;
        default:
          incomparable.push_back(v);
          break;
      }
    }
    // The quicksort saving: every parent dominates every child via the pivot,
    // so all |P| x |C| edges come without a vector comparison.
    ForCrossPairs(parents, children,
                  [](int r, int c, EdgeList* buf) { buf->emplace_back(r, c); });
    // Pairs straddling the incomparable set are undetermined by the pivot;
    // resolve them directly (keeps the recursion duplicate-free; see header).
    auto compare = [this](int r, int c, EdgeList* buf) { Compare(r, c, buf); };
    ForCrossPairs(parents, incomparable, compare);
    ForCrossPairs(children, incomparable, compare);
    Recurse(parents);
    Recurse(children);
    Recurse(incomparable);
  }

  const std::vector<std::vector<double>>& sims_;
  Rng rng_;
  EdgeList edges_;
};

}  // namespace

PairGraph QuickSortBuilder::Build(
    const std::vector<std::vector<double>>& sims) const {
  std::vector<EdgeList> chunks(1);
  chunks[0] = QuickSortBuildState(sims, seed_).Run();
  return PairGraph(sims.size(), std::move(chunks));
}

}  // namespace power

#include <utility>

#include "graph/builder.h"
#include "order/partial_order.h"
#include "util/parallel.h"

namespace power {
namespace {

// Rows per ParallelFor chunk. Row a costs n - a - 1 comparisons, so chunks
// are deliberately small and claimed dynamically to balance the triangle.
constexpr int64_t kRowGrain = 32;

}  // namespace

PairGraph BuildPairGraph(const GraphBuilder& builder,
                         const std::vector<SimilarPair>& pairs) {
  std::vector<std::vector<double>> sims;
  sims.reserve(pairs.size());
  for (const auto& p : pairs) sims.push_back(p.sims);
  return builder.Build(sims);
}

PairGraph BuildByRowChunks(
    size_t num_vertices, int64_t grain,
    const std::function<void(int64_t, int64_t, EdgeList*)>& emit_rows) {
  const int64_t n = static_cast<int64_t>(num_vertices);
  std::vector<EdgeList> chunks(NumChunks(0, n, grain));
  ParallelForChunked(0, n, grain,
                     [&](size_t chunk, int64_t row_begin, int64_t row_end) {
                       emit_rows(row_begin, row_end, &chunks[chunk]);
                     });
  return PairGraph(num_vertices, std::move(chunks));
}

PairGraph BruteForceBuilder::Build(
    const std::vector<std::vector<double>>& sims) const {
  const int n = static_cast<int>(sims.size());
  return BuildByRowChunks(
      sims.size(), kRowGrain,
      [&](int64_t row_begin, int64_t row_end, EdgeList* buf) {
        for (int a = static_cast<int>(row_begin);
             a < static_cast<int>(row_end); ++a) {
          for (int b = a + 1; b < n; ++b) {
            switch (CompareDominance(sims[a], sims[b])) {
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
        }
      });
}

}  // namespace power

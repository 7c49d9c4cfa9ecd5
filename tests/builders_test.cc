#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "order/partial_order.h"
#include "reference/graph_stats.h"
#include "util/rng.h"

namespace power {
namespace {

std::set<std::pair<int, int>> EdgeSet(const PairGraph& g) {
  std::set<std::pair<int, int>> edges;
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (int c : g.children(static_cast<int>(v))) {
      edges.insert({static_cast<int>(v), c});
    }
  }
  return edges;
}

std::vector<std::vector<double>> RandomSims(uint64_t seed, size_t n,
                                            size_t m, int grid) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) {
      x = static_cast<double>(rng.UniformIndex(grid + 1)) / grid;
    }
  }
  return sims;
}

TEST(BruteForceBuilderTest, PaperExampleEdges) {
  PairGraph g = BuildPairGraph(BruteForceBuilder(), PaperExamplePairs());
  EXPECT_EQ(g.num_vertices(), 18u);
  EXPECT_TRUE(IsAcyclic(g));

  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  auto edges = EdgeSet(g);
  // From §3.1: p27 ≻ p34 and p27 ≻ p35.
  EXPECT_TRUE(edges.count({idx(2, 7), idx(3, 4)}));
  EXPECT_TRUE(edges.count({idx(2, 7), idx(3, 5)}));
  // p34 ⪰ p35 but not strictly (identical vectors): no edge either way.
  EXPECT_FALSE(edges.count({idx(3, 4), idx(3, 5)}));
  EXPECT_FALSE(edges.count({idx(3, 5), idx(3, 4)}));
  // Transitive-closure edge p67 -> p12 is materialized (Fig. 1 omits it only
  // for display).
  EXPECT_TRUE(edges.count({idx(6, 7), idx(1, 2)}));
  // From the coloring walk-through: p10,11's descendants are exactly
  // {p27, p26, p34, p35, p89, p37}.
  auto descendants = Descendants(g, idx(10, 11));
  std::vector<int> expected = {idx(2, 7), idx(2, 6), idx(3, 4),
                               idx(3, 5), idx(8, 9), idx(3, 7)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(descendants, expected);
  // And p56's ancestors are exactly {p46, p47, p57, p23, p45, p67, p13}.
  auto ancestors = Ancestors(g, idx(5, 6));
  expected = {idx(4, 6), idx(4, 7), idx(5, 7), idx(2, 3),
              idx(4, 5), idx(6, 7), idx(1, 3)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ancestors, expected);
}

TEST(BuildersTest, AllThreeAgreeOnPaperExample) {
  auto pairs = PaperExamplePairs();
  PairGraph brute = BuildPairGraph(BruteForceBuilder(), pairs);
  PairGraph quick = BuildPairGraph(QuickSortBuilder(123), pairs);
  PairGraph index = BuildPairGraph(RangeTreeBuilder(), pairs);
  EXPECT_EQ(EdgeSet(brute), EdgeSet(quick));
  EXPECT_EQ(EdgeSet(brute), EdgeSet(index));
}

struct BuilderCase {
  size_t n;
  size_t m;
  int grid;
  uint64_t seed;
};

class BuilderEquivalence : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(BuilderEquivalence, QuickSortAndIndexMatchBruteForce) {
  const BuilderCase& c = GetParam();
  auto sims = RandomSims(c.seed, c.n, c.m, c.grid);
  PairGraph brute = BruteForceBuilder().Build(sims);
  PairGraph quick = QuickSortBuilder(c.seed * 13 + 1).Build(sims);
  PairGraph index = RangeTreeBuilder().Build(sims);
  auto expected = EdgeSet(brute);
  EXPECT_EQ(EdgeSet(quick), expected);
  EXPECT_EQ(EdgeSet(index), expected);
  EXPECT_TRUE(IsAcyclic(brute));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BuilderEquivalence,
    ::testing::Values(BuilderCase{1, 1, 4, 1}, BuilderCase{2, 2, 1, 2},
                      BuilderCase{10, 2, 3, 3}, BuilderCase{50, 2, 4, 4},
                      BuilderCase{50, 3, 4, 5}, BuilderCase{80, 4, 3, 6},
                      BuilderCase{120, 4, 5, 7}, BuilderCase{60, 6, 2, 8},
                      BuilderCase{200, 3, 10, 9},
                      // Many duplicate vectors (grid=1 -> heavy ties).
                      BuilderCase{100, 3, 1, 10}));

TEST(BuildersTest, EdgesAreExactlyTheStrictDominanceRelation) {
  auto sims = RandomSims(99, 60, 3, 4);
  PairGraph g = RangeTreeBuilder().Build(sims);
  for (size_t a = 0; a < sims.size(); ++a) {
    std::set<int> children(g.children(static_cast<int>(a)).begin(),
                           g.children(static_cast<int>(a)).end());
    for (size_t b = 0; b < sims.size(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(children.count(static_cast<int>(b)) > 0,
                StrictlyDominates(sims[a], sims[b]))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(BuildersTest, EmptyInput) {
  std::vector<std::vector<double>> empty;
  EXPECT_EQ(BruteForceBuilder().Build(empty).num_vertices(), 0u);
  EXPECT_EQ(QuickSortBuilder().Build(empty).num_vertices(), 0u);
  EXPECT_EQ(RangeTreeBuilder().Build(empty).num_vertices(), 0u);
}

TEST(BuildersTest, AllEqualVectorsYieldNoEdges) {
  std::vector<std::vector<double>> sims(20, {0.5, 0.5});
  EXPECT_EQ(BruteForceBuilder().Build(sims).num_edges(), 0u);
  EXPECT_EQ(QuickSortBuilder().Build(sims).num_edges(), 0u);
  EXPECT_EQ(RangeTreeBuilder().Build(sims).num_edges(), 0u);
}

TEST(BuildersTest, TotalOrderChainYieldsCompleteDag) {
  std::vector<std::vector<double>> sims;
  for (int i = 0; i < 10; ++i) {
    sims.push_back({i / 10.0, i / 10.0});
  }
  PairGraph g = BruteForceBuilder().Build(sims);
  EXPECT_EQ(g.num_edges(), 45u);  // n*(n-1)/2 closure edges
  PairGraph q = QuickSortBuilder().Build(sims);
  EXPECT_EQ(q.num_edges(), 45u);
  PairGraph r = RangeTreeBuilder().Build(sims);
  EXPECT_EQ(r.num_edges(), 45u);
}

TEST(RangeTreeBuilderTest, EveryIndexedDimensionPairIsCorrect) {
  // The builder indexes the two attributes with the most distinct values.
  // Attribute d1 gets the finest grid and d2 the next finest, so every
  // ordered pair (d1, d2) is the indexed one in turn.
  constexpr size_t kAttrs = 4;
  for (size_t d1 = 0; d1 < kAttrs; ++d1) {
    for (size_t d2 = 0; d2 < kAttrs; ++d2) {
      if (d1 == d2) continue;
      Rng rng(123 + d1 * kAttrs + d2);
      std::vector<std::vector<double>> sims(40, std::vector<double>(kAttrs));
      for (auto& v : sims) {
        for (size_t k = 0; k < kAttrs; ++k) {
          const int grid = k == d1 ? 1000 : k == d2 ? 100 : 2;
          v[k] = static_cast<double>(rng.UniformIndex(grid + 1)) / grid;
        }
      }
      EXPECT_EQ(EdgeSet(RangeTreeBuilder().Build(sims)),
                EdgeSet(BruteForceBuilder().Build(sims)))
          << "d1=" << d1 << " d2=" << d2;
    }
  }
}

}  // namespace
}  // namespace power

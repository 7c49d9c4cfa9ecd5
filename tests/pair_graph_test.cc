#include <algorithm>

#include <gtest/gtest.h>

#include "graph/pair_graph.h"
#include "reference/graph_stats.h"
#include "util/parallel.h"

namespace power {
namespace {

std::vector<int> ToVec(std::span<const int> s) {
  return std::vector<int>(s.begin(), s.end());
}

// A small diamond: 0 -> {1, 2} -> 3, plus closure edge 0 -> 3.
PairGraph Diamond() {
  EdgeList edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 3}};
  return PairGraph(4, {edges});
}

TEST(PairGraphTest, EdgeAccounting) {
  PairGraph g = Diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(ToVec(g.children(0)), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ToVec(g.parents(3)), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(g.parents(0).empty());
  EXPECT_TRUE(g.children(3).empty());
}

TEST(PairGraphTest, DedupRemovesDuplicates) {
  // 0 -> 1 twice in the first chunk and again in the third; 2 -> 1 in the
  // second and third chunks; an empty chunk in between.
  std::vector<EdgeList> chunks = {
      {{0, 1}, {0, 1}, {0, 2}}, {{2, 1}}, {}, {{2, 1}, {0, 1}}};
  PairGraph g(3, std::move(chunks));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(ToVec(g.children(0)), (std::vector<int>{1, 2}));
  EXPECT_EQ(ToVec(g.children(2)), (std::vector<int>{1}));
  EXPECT_EQ(ToVec(g.parents(1)), (std::vector<int>{0, 2}));
  EXPECT_EQ(ToVec(g.parents(2)), (std::vector<int>{0}));
}

TEST(PairGraphTest, LayoutIgnoresChunking) {
  // A closed chain of 200 vertices (19,900 edges, more than one edge grain
  // of the layout passes) split into uneven chunks, empty ones included, in
  // reverse order: every vertex must still see exactly its closure.
  constexpr int kN = 200;
  EdgeList all;
  for (int a = 0; a < kN; ++a) {
    for (int b = a + 1; b < kN; ++b) all.emplace_back(a, b);
  }
  std::vector<EdgeList> chunks;
  size_t pos = all.size();
  for (size_t size : {0, 1, 7, 0, 5000, 3, 9000}) {
    size = std::min(size, pos);
    chunks.emplace_back(all.begin() + (pos - size), all.begin() + pos);
    pos -= size;
  }
  chunks.emplace_back(all.begin(), all.begin() + pos);
  for (int threads : {1, 2, 8}) {
    ScopedNumThreads scope(threads);
    PairGraph g(kN, chunks);
    ASSERT_EQ(g.num_edges(), all.size());
    for (int v = 0; v < kN; ++v) {
      ASSERT_EQ(g.children(v).size(), static_cast<size_t>(kN - 1 - v));
      ASSERT_EQ(g.parents(v).size(), static_cast<size_t>(v));
      for (size_t k = 0; k < g.children(v).size(); ++k) {
        ASSERT_EQ(g.children(v)[k], v + 1 + static_cast<int>(k));
      }
      for (size_t k = 0; k < g.parents(v).size(); ++k) {
        ASSERT_EQ(g.parents(v)[k], static_cast<int>(k));
      }
    }
  }
}

TEST(PairGraphDeathTest, RejectsBadEndpoints) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr char kParent[] = "POWER_CHECK failed.*p >= 0 && p < num_vertices";
  constexpr char kChild[] = "POWER_CHECK failed.*c >= 0 && c < num_vertices";
  EXPECT_DEATH(PairGraph(3, {{{0, 3}}}), kChild);
  EXPECT_DEATH(PairGraph(3, {{{-1, 0}}}), kParent);
  EXPECT_DEATH(PairGraph(3, {{{0, 1}}, {{2, 7}}}), kChild);
  EXPECT_DEATH(PairGraph(0, {{{0, 1}}}), kParent);
  EXPECT_DEATH(PairGraph(3, {{{1, 1}}}), "POWER_CHECK failed.*p != c");
}

TEST(PairGraphDeathTest, RejectsOutOfRangeVertexQueries) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PairGraph g = Diamond();
  EXPECT_DEATH(g.children(4), "POWER_CHECK failed");
  EXPECT_DEATH(g.parents(-1), "POWER_CHECK failed");
}

TEST(PairGraphTest, DescendantsAndAncestors) {
  PairGraph g = Diamond();
  EXPECT_EQ(Descendants(g, 0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Descendants(g, 1), (std::vector<int>{3}));
  EXPECT_TRUE(Descendants(g, 3).empty());
  EXPECT_EQ(Ancestors(g, 3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Ancestors(g, 1), (std::vector<int>{0}));
  EXPECT_TRUE(Ancestors(g, 0).empty());
}

TEST(PairGraphTest, DescendantsFollowTransitiveChains) {
  // Chain with only Hasse edges (no closure): reachability must still work.
  EdgeList edges = {{0, 1}, {1, 2}, {2, 3}};
  PairGraph g(4, {edges});
  EXPECT_EQ(Descendants(g, 0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Ancestors(g, 3), (std::vector<int>{0, 1, 2}));
}

TEST(PairGraphTest, TopologicalLevelsDiamond) {
  PairGraph g = Diamond();
  auto levels = TopologicalLevels(g, std::vector<bool>(4, true));
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<int>{0}));
  EXPECT_EQ(levels[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(levels[2], (std::vector<int>{3}));
}

TEST(PairGraphTest, TopologicalLevelsRespectActiveMask) {
  PairGraph g = Diamond();
  std::vector<bool> active = {false, true, true, true};
  auto levels = TopologicalLevels(g, active);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(levels[1], (std::vector<int>{3}));
}

TEST(PairGraphTest, TopologicalLevelsEmptyActiveSet) {
  PairGraph g = Diamond();
  EXPECT_TRUE(TopologicalLevels(g, std::vector<bool>(4, false)).empty());
}

TEST(PairGraphTest, IsAcyclic) {
  EXPECT_TRUE(IsAcyclic(Diamond()));
  EdgeList cycle = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_FALSE(IsAcyclic(PairGraph(3, {cycle})));
}

TEST(PairGraphTest, IsolatedVerticesFormOneLevel) {
  PairGraph g(3, {});
  auto levels = TopologicalLevels(g, std::vector<bool>(3, true));
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace power

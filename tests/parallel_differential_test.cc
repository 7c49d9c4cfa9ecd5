// Differential harness for the parallel hot paths: on randomized instances,
// every parallelized stage — candidate generation, similarity vectors, and
// all four graph builders — must produce output identical to the serial
// path (num_threads == 1) at every thread count. Edge sets are compared
// exactly; similarity values bit-for-bit (the partial order of §3.1 uses
// exact double comparisons, so "close" is not good enough).
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "data/generator.h"
#include "graph/builder.h"
#include "reference/graph_stats.h"
#include "sim/similarity_matrix.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace {

const int kThreadCounts[] = {1, 2, 8};

std::set<std::pair<int, int>> EdgeSet(const PairGraph& g) {
  std::set<std::pair<int, int>> edges;
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (int c : g.children(static_cast<int>(v))) {
      edges.insert({static_cast<int>(v), c});
    }
  }
  return edges;
}

std::vector<std::vector<double>> RandomSims(uint64_t seed, size_t n, size_t m,
                                            int grid) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) {
      x = static_cast<double>(rng.UniformIndex(grid + 1)) / grid;
    }
  }
  return sims;
}

struct Instance {
  size_t n;     // vertices
  size_t m;     // attributes
  int grid;     // distinct values per attribute (ties ⇔ duplicate clusters)
  uint64_t seed;
};

class ParallelBuilderDifferential : public ::testing::TestWithParam<Instance> {
};

TEST_P(ParallelBuilderDifferential, AllBuildersMatchSerialAtEveryThreadCount) {
  const Instance& inst = GetParam();
  auto sims = RandomSims(inst.seed, inst.n, inst.m, inst.grid);

  const BruteForceBuilder brute;
  const QuickSortBuilder quick(inst.seed * 31 + 5);
  const RangeTreeBuilder index;
  const RangeTreeMdBuilder index_md;
  const GraphBuilder* builders[] = {&brute, &quick, &index, &index_md};

  for (const GraphBuilder* builder : builders) {
    std::set<std::pair<int, int>> serial_edges;
    size_t serial_edge_count = 0;
    {
      ScopedNumThreads scope(1);
      PairGraph g = builder->Build(sims);
      serial_edges = EdgeSet(g);
      serial_edge_count = g.num_edges();
    }
    for (int threads : kThreadCounts) {
      ScopedNumThreads scope(threads);
      PairGraph g = builder->Build(sims);
      EXPECT_EQ(g.num_vertices(), inst.n);
      EXPECT_EQ(g.num_edges(), serial_edge_count)
          << builder->name() << " threads=" << threads;
      EXPECT_EQ(EdgeSet(g), serial_edges)
          << builder->name() << " threads=" << threads;
      EXPECT_TRUE(IsAcyclic(g)) << builder->name() << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ParallelBuilderDifferential,
    ::testing::Values(Instance{1, 1, 4, 21}, Instance{2, 2, 1, 22},
                      Instance{17, 2, 3, 23}, Instance{60, 3, 4, 24},
                      Instance{120, 4, 5, 25}, Instance{200, 2, 10, 26},
                      Instance{150, 6, 2, 27},
                      // grid=1 ⇒ heavy duplicate clusters (equal vectors).
                      Instance{100, 3, 1, 28},
                      // Large enough that every parallel branch engages.
                      Instance{400, 3, 6, 29}));

// The four builder kinds must also agree with *each other* on the parallel
// path, not just each with its own serial run.
TEST(ParallelBuilderDifferential, BuilderKindsAgreePairwiseWhenParallel) {
  auto sims = RandomSims(77, 180, 4, 4);
  ScopedNumThreads scope(8);
  auto expected = EdgeSet(BruteForceBuilder().Build(sims));
  EXPECT_EQ(EdgeSet(QuickSortBuilder(123).Build(sims)), expected);
  EXPECT_EQ(EdgeSet(RangeTreeBuilder().Build(sims)), expected);
  EXPECT_EQ(EdgeSet(RangeTreeMdBuilder().Build(sims)), expected);
}

TEST(ParallelSimilarityDifferential, CandidatesAndVectorsMatchSerial) {
  // Varying table sizes / attribute counts via the three dataset profiles.
  struct TableCase {
    DatasetProfile profile;
    uint64_t seed;
  };
  DatasetProfile restaurant = RestaurantProfile();
  restaurant.num_records = 80;
  restaurant.num_entities = 60;
  DatasetProfile cora = CoraProfile();
  cora.num_records = 60;
  cora.num_entities = 12;
  DatasetProfile acm = AcmPubProfile(0.002);
  std::vector<TableCase> cases = {{restaurant, 11}, {cora, 12}, {acm, 13}};

  for (const TableCase& c : cases) {
    Table table = DatasetGenerator(c.seed).Generate(c.profile);

    std::vector<std::pair<int, int>> serial_candidates;
    std::vector<SimilarPair> serial_pairs;
    {
      ScopedNumThreads scope(1);
      FeatureCache features(table);
      serial_candidates = AllPairsCandidates(features, 0.3);
      serial_pairs = ComputePairSimilarities(features, serial_candidates, 0.2);
    }
    ASSERT_FALSE(serial_candidates.empty()) << c.profile.name;

    for (int threads : kThreadCounts) {
      ScopedNumThreads scope(threads);
      FeatureCache features(table);
      // Candidate generation: byte-identical, including order.
      EXPECT_EQ(AllPairsCandidates(features, 0.3), serial_candidates)
          << c.profile.name << " threads=" << threads;
      // Similarity vectors: positionally identical, doubles bit-for-bit.
      auto pairs = ComputePairSimilarities(features, serial_candidates, 0.2);
      ASSERT_EQ(pairs.size(), serial_pairs.size());
      for (size_t p = 0; p < pairs.size(); ++p) {
        EXPECT_EQ(pairs[p].i, serial_pairs[p].i);
        EXPECT_EQ(pairs[p].j, serial_pairs[p].j);
        ASSERT_EQ(pairs[p].sims.size(), serial_pairs[p].sims.size());
        for (size_t k = 0; k < pairs[p].sims.size(); ++k) {
          EXPECT_EQ(pairs[p].sims[k], serial_pairs[p].sims[k])
              << c.profile.name << " threads=" << threads << " pair=" << p
              << " attr=" << k;
        }
      }
    }
  }
}

// End-to-end over the similarity stage: the graph built from a parallel
// similarity computation equals the one built fully serially.
TEST(ParallelSimilarityDifferential, GraphFromParallelPipelineMatchesSerial) {
  DatasetProfile profile = RestaurantProfile();
  profile.num_records = 100;
  profile.num_entities = 80;
  Table table = DatasetGenerator(99).Generate(profile);

  std::set<std::pair<int, int>> serial_edges;
  {
    ScopedNumThreads scope(1);
    FeatureCache features(table);
    auto candidates = AllPairsCandidates(features, 0.3);
    auto pairs = ComputePairSimilarities(features, candidates, 0.2);
    serial_edges = EdgeSet(BuildPairGraph(BruteForceBuilder(), pairs));
  }
  for (int threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    FeatureCache features(table);
    auto candidates = AllPairsCandidates(features, 0.3);
    auto pairs = ComputePairSimilarities(features, candidates, 0.2);
    EXPECT_EQ(EdgeSet(BuildPairGraph(BruteForceBuilder(), pairs)),
              serial_edges)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace power

#include <algorithm>

#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "blocking/prefix_join.h"
#include "data/generator.h"
#include "data/paper_example.h"

namespace power {
namespace {

TEST(AllPairsTest, ThresholdOneKeepsOnlyIdenticalTokenSets) {
  Table t = PaperExampleTable();
  auto pairs = AllPairsCandidates(t, 1.0);
  // No two records of the running example share an identical token set.
  EXPECT_TRUE(pairs.empty());
}

TEST(AllPairsTest, ThresholdMonotonicity) {
  Table t = PaperExampleTable();
  auto loose = AllPairsCandidates(t, 0.1);
  auto tight = AllPairsCandidates(t, 0.4);
  EXPECT_GE(loose.size(), tight.size());
  // Every tight pair is also a loose pair.
  for (const auto& p : tight) {
    EXPECT_NE(std::find(loose.begin(), loose.end(), p), loose.end());
  }
}

TEST(AllPairsTest, PairsAreOrderedAndDistinct) {
  Table t = PaperExampleTable();
  auto pairs = AllPairsCandidates(t, 0.2);
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, j);
  }
  auto sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

class PrefixJoinEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(PrefixJoinEquivalence, MatchesAllPairsOnPaperExample) {
  double tau = GetParam();
  Table t = PaperExampleTable();
  auto brute = AllPairsCandidates(t, tau);
  auto joined = PrefixFilterJoin(t, tau);
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(joined, brute);
}

TEST_P(PrefixJoinEquivalence, MatchesAllPairsOnGeneratedData) {
  double tau = GetParam();
  DatasetProfile p = RestaurantProfile();
  p.num_records = 150;
  p.num_entities = 90;
  Table t = DatasetGenerator(77).Generate(p);
  auto brute = AllPairsCandidates(t, tau);
  auto joined = PrefixFilterJoin(t, tau);
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(joined, brute) << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PrefixJoinEquivalence,
                         ::testing::Values(0.2, 0.3, 0.5, 0.7, 0.9));

TEST(PrefixJoinTest, HandlesDuplicateRecords) {
  Schema schema({{"a", SimilarityFunction::kJaccard}});
  Table t(schema);
  t.Add({-1, 0, {"alpha beta"}});
  t.Add({-1, 0, {"alpha beta"}});
  t.Add({-1, 1, {"gamma delta"}});
  auto pairs = PrefixFilterJoin(t, 0.5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{0, 1}));
}

TEST(PrefixJoinTest, EmptyAndSingletonTables) {
  Schema schema({{"a", SimilarityFunction::kJaccard}});
  Table empty(schema);
  EXPECT_TRUE(PrefixFilterJoin(empty, 0.3).empty());
  Table one(schema);
  one.Add({-1, 0, {"solo"}});
  EXPECT_TRUE(PrefixFilterJoin(one, 0.3).empty());
}

TEST(GenerateCandidatesTest, DispatchAgrees) {
  Table t = PaperExampleTable();
  auto a = GenerateCandidates(t, 0.3, CandidateMethod::kAllPairs);
  auto b = GenerateCandidates(t, 0.3, CandidateMethod::kPrefixJoin);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(GenerateCandidatesTest, AutoDispatchesByRecordCountAndCutoff) {
  DatasetProfile p = RestaurantProfile();
  p.num_records = 64;
  p.num_entities = 40;
  Table t = DatasetGenerator(5).Generate(p);
  FeatureCache features(t);
  CandidateOptions options;
  CandidateStats stats;

  options.all_pairs_cutoff = 1000;  // 64 records <= cutoff -> quadratic scan
  auto a = GenerateCandidates(features, 0.3, CandidateMethod::kAuto, options,
                              &stats);
  EXPECT_EQ(stats.resolved, CandidateMethod::kAllPairs);

  options.all_pairs_cutoff = 10;  // 64 records > cutoff -> prefix join
  auto b = GenerateCandidates(features, 0.3, CandidateMethod::kAuto, options,
                              &stats);
  EXPECT_EQ(stats.resolved, CandidateMethod::kPrefixJoin);

  // The dispatch is invisible in the results.
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace power

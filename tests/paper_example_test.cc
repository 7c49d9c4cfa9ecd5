#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "reference/similarity.h"

namespace power {
namespace {

TEST(PaperExampleTest, EighteenPairsFromTable2) {
  auto pairs = PaperExamplePairs();
  ASSERT_EQ(pairs.size(), 18u);
  for (const auto& p : pairs) {
    EXPECT_LT(p.i, p.j);
    ASSERT_EQ(p.sims.size(), 4u);
    for (double s : p.sims) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(PaperExampleTest, Table2SpotValues) {
  auto pairs = PaperExamplePairs();
  auto sims = [&](int a, int b) {
    int idx = PaperExamplePairIndex(a, b);
    EXPECT_GE(idx, 0);
    return pairs[idx].sims;
  };
  EXPECT_EQ(sims(1, 2), (std::vector<double>{0.72, 0.4, 1.0, 0.88}));
  EXPECT_EQ(sims(4, 5), (std::vector<double>{0.92, 1.0, 1.0, 1.0}));
  EXPECT_EQ(sims(6, 7), (std::vector<double>{0.94, 1.0, 1.0, 1.0}));
  EXPECT_EQ(sims(10, 11), (std::vector<double>{0.5, 0.25, 1.0, 0.0}));
  EXPECT_EQ(sims(3, 7), (std::vector<double>{0.28, 0.2, 0.33, 0.0}));
}

TEST(PaperExampleTest, PairIndexHandlesOrderAndMisses) {
  EXPECT_EQ(PaperExamplePairIndex(2, 1), PaperExamplePairIndex(1, 2));
  EXPECT_EQ(PaperExamplePairIndex(1, 11), -1);
  EXPECT_EQ(PaperExamplePairIndex(8, 10), -1);
}

TEST(PaperExampleTest, PairsMatchTableEntities) {
  Table t = PaperExampleTable();
  auto pairs = PaperExamplePairs();
  int green = 0;
  for (const auto& p : pairs) {
    if (t.record(p.i).entity_id == t.record(p.j).entity_id) ++green;
  }
  // 3 matching pairs within {r1,r2,r3} + 6 within {r4..r7}.
  EXPECT_EQ(green, 9);
}

TEST(PaperExampleTest, AttributeSimilarityFunctionsAsInSection31) {
  // §3.1: edit similarity on A1 (name) and A4 (flavor); Jaccard on A2
  // (address) and A3 (city).
  Table t = PaperExampleTable();
  EXPECT_EQ(t.schema().attribute(0).sim,
            SimilarityFunction::kEditSimilarity);
  EXPECT_EQ(t.schema().attribute(1).sim, SimilarityFunction::kJaccard);
  EXPECT_EQ(t.schema().attribute(2).sim, SimilarityFunction::kJaccard);
  EXPECT_EQ(t.schema().attribute(3).sim,
            SimilarityFunction::kEditSimilarity);
}

TEST(PaperExampleTest, ComputedJaccardSimilaritiesMatchTable2) {
  // The Jaccard attributes can be recomputed exactly from Table 1's strings;
  // the paper's edit-similarity values involve its own length conventions,
  // so only A2/A3 are asserted bit-exactly here.
  Table t = PaperExampleTable();
  auto pairs = PaperExamplePairs();
  for (const auto& p : pairs) {
    SimilarPair computed = ComputePairSimilarity(t, p.i, p.j, 0.0);
    EXPECT_NEAR(computed.sims[1], p.sims[1], 0.011)
        << "address sim for (" << p.i + 1 << "," << p.j + 1 << ")";
    EXPECT_NEAR(computed.sims[2], p.sims[2], 0.011)
        << "city sim for (" << p.i + 1 << "," << p.j + 1 << ")";
  }
}

}  // namespace
}  // namespace power

#include "reference/similarity.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/similarity.h"
#include "util/check.h"

namespace power {

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string.
  if (b.empty()) return a.size();
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t next_diag = row[j];
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      diag = next_diag;
    }
  }
  return row[b.size()];
}

SimilarPair ComputePairSimilarity(const Table& table, int i, int j,
                                  double component_floor) {
  POWER_CHECK(i != j);
  if (i > j) std::swap(i, j);
  SimilarPair p;
  p.i = i;
  p.j = j;
  const Schema& schema = table.schema();
  p.sims.reserve(schema.num_attributes());
  for (size_t k = 0; k < schema.num_attributes(); ++k) {
    double s = ComputeSimilarity(schema.attribute(k).sim, table.Value(i, k),
                                 table.Value(j, k));
    if (s < component_floor) s = 0.0;
    p.sims.push_back(s);
  }
  return p;
}

}  // namespace power

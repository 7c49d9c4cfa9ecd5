#include "blocking/prefix_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/tokenizer.h"
#include "util/check.h"

namespace power {
namespace {

// The join's precomputed per-record state.
struct Workspace {
  // Per record: its sorted-unique tokens mapped to global frequency ranks
  // (rarer token == smaller rank, ties broken by token bytes), ascending.
  std::vector<std::vector<int32_t>> tokens;
  // Per record: its prefix length |x| - ceil(tau*|x|) + 1 (0 for token-less
  // records). The prefix is tokens[i][0 .. prefix_len[i]).
  std::vector<size_t> prefix_len;
  // All records in processing order: increasing token count, ties by id.
  // The index-nested-loop join must process records in this order so the
  // one-sided length filter stays sound.
  std::vector<int> order;
  double tau = 0.0;
};

// Document frequencies, (frequency, bytes) token ranking, rank-space token
// vectors, prefix lengths, processing order.
Workspace BuildWorkspace(const FeatureCache& features, double tau) {
  Workspace ws;
  ws.tau = tau;
  const int n = static_cast<int>(features.num_records());

  // 1. Document frequency per interned token over the record-level spans.
  //    The spans are sorted-unique, so this equals the per-record-set count
  //    the string-keyed dictionary used to produce.
  std::vector<int> freq(features.dict_size(), 0);
  for (int i = 0; i < n; ++i) {
    for (int32_t id : features.RecordTokenIds(static_cast<size_t>(i))) {
      ++freq[static_cast<size_t>(id)];
    }
  }

  // 2. Re-rank so that rarer tokens get smaller ranks, ties broken by token
  //    bytes — the exact (frequency, string) vocab order of the string path.
  //    Record token vectors sorted by rank then put the most selective
  //    tokens in the prefix.
  std::vector<int32_t> used;
  for (size_t id = 0; id < freq.size(); ++id) {
    if (freq[id] > 0) used.push_back(static_cast<int32_t>(id));
  }
  std::sort(used.begin(), used.end(), [&](int32_t a, int32_t b) {
    if (freq[static_cast<size_t>(a)] != freq[static_cast<size_t>(b)]) {
      return freq[static_cast<size_t>(a)] < freq[static_cast<size_t>(b)];
    }
    return features.TokenString(a) < features.TokenString(b);
  });
  std::vector<int32_t> rank(features.dict_size(), -1);
  for (size_t r = 0; r < used.size(); ++r) {
    rank[static_cast<size_t>(used[r])] = static_cast<int32_t>(r);
  }
  ws.tokens.resize(static_cast<size_t>(n));
  ws.prefix_len.resize(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    auto span = features.RecordTokenIds(static_cast<size_t>(i));
    auto& t = ws.tokens[static_cast<size_t>(i)];
    t.reserve(span.size());
    for (int32_t id : span) t.push_back(rank[static_cast<size_t>(id)]);
    std::sort(t.begin(), t.end());
    if (!t.empty()) {
      const size_t len = t.size();
      size_t prefix = len - static_cast<size_t>(std::ceil(tau * len)) + 1;
      ws.prefix_len[static_cast<size_t>(i)] = std::min(prefix, len);
    }
  }

  // 3. Processing order: increasing token count so the index only ever holds
  //    records no longer than the probe (one-sided length filter).
  ws.order.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ws.order[static_cast<size_t>(i)] = i;
  std::sort(ws.order.begin(), ws.order.end(), [&](int a, int b) {
    const auto& ta = ws.tokens[static_cast<size_t>(a)];
    const auto& tb = ws.tokens[static_cast<size_t>(b)];
    if (ta.size() != tb.size()) return ta.size() < tb.size();
    return a < b;
  });
  return ws;
}

// The index-nested-loop join over the processing order. Appends every
// verified pair (min, max) to *out, in discovery order. Token-less records
// never enter the index (see AppendEmptyRecordPairs).
void JoinInOrder(const Workspace& workspace,
                 std::vector<std::pair<int, int>>* out) {
  const double tau = workspace.tau;
  // Inverted index: token rank -> records whose *prefix* contains it.
  std::unordered_map<int32_t, std::vector<int>> index;
  // Probe-stamped candidate dedup, keyed by processing step.
  std::vector<int> last_seen(workspace.tokens.size(), -1);

  for (int step = 0; step < static_cast<int>(workspace.order.size());
       ++step) {
    const int x = workspace.order[static_cast<size_t>(step)];
    const auto& tx = workspace.tokens[static_cast<size_t>(x)];
    if (tx.empty()) continue;
    const size_t len_x = tx.size();
    const size_t prefix_x = workspace.prefix_len[static_cast<size_t>(x)];

    // Probe.
    for (size_t p = 0; p < prefix_x; ++p) {
      auto it = index.find(tx[p]);
      if (it == index.end()) continue;
      for (int y : it->second) {
        if (last_seen[static_cast<size_t>(y)] == step) continue;
        last_seen[static_cast<size_t>(y)] = step;
        const auto& ty = workspace.tokens[static_cast<size_t>(y)];
        const size_t len_y = ty.size();
        // Length filter: the best case shares all of the shorter record, so
        // Jaccard can only reach tau if min/max does. Phrased through the
        // shared predicate — the exact arithmetic of the verification below
        // and of the all-pairs scan — so a boundary pair can never be
        // dropped here that verification would have accepted.
        if (!RecordJaccardAtLeast(std::min(len_x, len_y), len_x, len_y,
                                  tau)) {
          continue;
        }
        // Verification: the exact record-level Jaccard prune decision, same
        // predicate (and same dispatched intersection kernel) as
        // AllPairsCandidates — not a cross-multiplied epsilon rewrite that
        // could disagree with it on the tau boundary.
        size_t inter = SortedIntersectionSize(std::span<const int32_t>(tx),
                                              std::span<const int32_t>(ty));
        if (RecordJaccardAtLeast(inter, len_x, len_y, tau)) {
          out->emplace_back(std::min(x, y), std::max(x, y));
        }
      }
    }
    // Insert x's prefix tokens.
    for (size_t p = 0; p < prefix_x; ++p) {
      index[tx[p]].push_back(x);
    }
  }
}

// The record-level prune defines Jaccard(∅, ∅) = 1, so when tau permits,
// every pair of token-less records is a candidate. Appends those pairs
// (they never enter the token index).
void AppendEmptyRecordPairs(const Workspace& workspace,
                            std::vector<std::pair<int, int>>* out) {
  if (!RecordJaccardAtLeast(0, 0, 0, workspace.tau)) return;
  std::vector<int> empty_records;
  for (size_t i = 0; i < workspace.tokens.size(); ++i) {
    if (workspace.tokens[i].empty()) {
      empty_records.push_back(static_cast<int>(i));
    }
  }
  for (size_t a = 0; a < empty_records.size(); ++a) {
    for (size_t b = a + 1; b < empty_records.size(); ++b) {
      out->emplace_back(empty_records[a], empty_records[b]);
    }
  }
}

}  // namespace

std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  double tau) {
  POWER_CHECK(tau > 0.0 && tau <= 1.0);
  const Workspace ws = BuildWorkspace(features, tau);
  std::vector<std::pair<int, int>> result;
  JoinInOrder(ws, &result);
  AppendEmptyRecordPairs(ws, &result);
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace power

#include "select/topo_selector.h"

#include <algorithm>

#include "util/check.h"

namespace power {

void TopoSortSelector::Rebind(const ColoringState& state) {
  const PairGraph& graph = state.graph();
  const size_t n = graph.num_vertices();
  active_.assign(n, 0);
  indeg_.assign(n, 0);
  for (size_t v = 0; v < n; ++v) {
    active_[v] = state.IsUncolored(static_cast<int>(v)) ? 1 : 0;
  }
  for (size_t v = 0; v < n; ++v) {
    int d = 0;
    for (int p : graph.parents(static_cast<int>(v))) d += active_[p];
    indeg_[v] = d;
  }
  bound_state_id_ = state.state_id();
  journal_pos_ = state.color_journal().size();
}

void TopoSortSelector::SyncJournal(const ColoringState& state) {
  const PairGraph& graph = state.graph();
  const std::vector<int>& journal = state.color_journal();
  for (; journal_pos_ < journal.size(); ++journal_pos_) {
    int v = journal[journal_pos_];
    uint8_t now = state.IsUncolored(v) ? 1 : 0;
    if (now == active_[v]) continue;  // net no-op (or later entry covers it)
    active_[v] = now;
    int delta = now ? 1 : -1;
    for (int c : graph.children(v)) indeg_[c] += delta;
  }
}

std::vector<int> TopoSortSelector::NextBatch(const ColoringState& state) {
  if (bound_state_id_ != state.state_id()) {
    Rebind(state);
  } else {
    SyncJournal(state);
  }
  const size_t num_active = state.num_uncolored();
  if (num_active == 0) return {};

  const PairGraph& graph = state.graph();
  peel_indeg_ = indeg_;
  peel_order_.clear();
  level_offsets_.clear();
  // Initial frontier ascending (the scan is in vertex order); every later
  // level is sorted after collection — matching the level contents of
  // the reference TopologicalLevels (tests/reference/graph_stats.h) exactly.
  for (size_t v = 0; v < active_.size(); ++v) {
    if (active_[v] && peel_indeg_[v] == 0) {
      peel_order_.push_back(static_cast<int>(v));
    }
  }
  size_t level_begin = 0;
  while (level_begin < peel_order_.size()) {
    level_offsets_.push_back(level_begin);
    const size_t level_end = peel_order_.size();
    for (size_t i = level_begin; i < level_end; ++i) {
      for (int c : graph.children(peel_order_[i])) {
        if (active_[c] && --peel_indeg_[c] == 0) peel_order_.push_back(c);
      }
    }
    std::sort(peel_order_.begin() + static_cast<int64_t>(level_end),
              peel_order_.end());
    level_begin = level_end;
  }
  level_offsets_.push_back(peel_order_.size());
  POWER_CHECK_MSG(peel_order_.size() == num_active,
                  "uncolored subgraph must be acyclic");

  const size_t num_levels = level_offsets_.size() - 1;
  size_t pick = 0;
  switch (policy_) {
    case LevelPolicy::kFirst:
      pick = 0;
      break;
    case LevelPolicy::kLast:
      pick = num_levels - 1;
      break;
    case LevelPolicy::kMiddle:
      // Middle level, 1-based ceil((|L|+1)/2) -> 0-based (|L|-1)/2.
      pick = (num_levels - 1) / 2;
      break;
  }
  return std::vector<int>(
      peel_order_.begin() + static_cast<int64_t>(level_offsets_[pick]),
      peel_order_.begin() + static_cast<int64_t>(level_offsets_[pick + 1]));
}

}  // namespace power

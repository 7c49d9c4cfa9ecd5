#ifndef POWER_SELECT_TOPO_SELECTOR_H_
#define POWER_SELECT_TOPO_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "select/selector.h"

namespace power {

/// Algorithm 4, the paper's "Power" selection (§5.3.2): topologically sorts
/// the uncolored subgraph into levels L1..L|L| and asks the entire middle
/// level L_ceil((|L|+1)/2) in parallel — those vertices are mutually
/// independent (no in-edges among them) and most likely to straddle the
/// GREEN/RED boundary. (The paper's "L_{|L|+1}" is read as the middle level;
/// its worked example with |L| = 5 asks L3.)
///
/// The selector is incremental across rounds: it maintains, for every
/// vertex, the number of still-uncolored parents (the active in-degree). At
/// the start of each round it folds the ColoringState's color journal into
/// those counts — touching only the vertices whose color changed since the
/// previous round, including tie-reverts back to UNCOLORED — instead of
/// re-deriving all in-degrees from the edge set as the historical
/// implementation did. The Kahn peel then runs over a scratch copy of the
/// counts with reused buffers (flat peel order + level offsets), so a round
/// allocates nothing once warm. The produced levels are byte-identical to
/// the reference TopologicalLevels (tests/reference/graph_stats.h) on the
/// uncolored subgraph.
class TopoSortSelector : public QuestionSelector {
 public:
  /// Which level of the topological sort to crowdsource each round. The
  /// paper argues for the middle level (boundary vertices concentrate
  /// there); kFirst/kLast exist for the ablation bench, which confirms the
  /// argument empirically.
  enum class LevelPolicy { kFirst, kMiddle, kLast };

  explicit TopoSortSelector(LevelPolicy policy = LevelPolicy::kMiddle)
      : policy_(policy) {}
  const char* name() const override { return "TopoSort"; }
  std::vector<int> NextBatch(const ColoringState& state) override;

 private:
  /// Full O(|V| + |E|) derivation of active flags and in-degrees; runs once
  /// per bound state (detected via ColoringState::state_id()).
  void Rebind(const ColoringState& state);
  /// Folds journal entries [journal_pos_, end) into active_/indeg_.
  void SyncJournal(const ColoringState& state);

  LevelPolicy policy_;

  uint64_t bound_state_id_ = 0;
  size_t journal_pos_ = 0;
  std::vector<uint8_t> active_;  // 1 iff vertex uncolored (selector's view)
  std::vector<int> indeg_;       // #active parents, maintained for EVERY v

  // Per-round peel scratch (reused).
  std::vector<int> peel_indeg_;
  std::vector<int> peel_order_;        // vertices in peel order, flat
  std::vector<size_t> level_offsets_;  // level k = peel_order_[off[k], off[k+1])
};

}  // namespace power

#endif  // POWER_SELECT_TOPO_SELECTOR_H_

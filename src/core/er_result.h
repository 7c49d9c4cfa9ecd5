#ifndef POWER_CORE_ER_RESULT_H_
#define POWER_CORE_ER_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>

namespace power {

/// Outcome every entity-resolution method (Power, Power+, and the baselines)
/// reports: the pairs it declares matching plus the cost counters the paper
/// compares (questions = monetary cost, iterations = latency).
struct ErResult {
  /// PairKey(i, j) of every record pair declared to refer to the same
  /// entity. Pairs pruned before asking are implicitly non-matching.
  std::unordered_set<uint64_t> matched_pairs;
  size_t questions = 0;
  size_t iterations = 0;
  /// Time spent deciding which questions to ask (Fig. 30's "assignment
  /// time"), excluding crowd latency. Power reports it; the baselines leave
  /// it at 0.
  double assignment_seconds = 0.0;

  // Fault ledger (zero under a perfect crowd; only fault-tolerant loops
  // populate these — the baselines never re-queue).
  /// Question postings that came back unanswered from a faulty platform and
  /// were re-queued (re-posted) by the resolution loop.
  size_t requeued_questions = 0;
  /// Questions that exhausted their retry budget and fell back to the
  /// machine (histogram) answer instead of a crowd vote.
  size_t degraded_questions = 0;

  // Durability ledger (zero unless the run checkpoints — see
  // core/job_journal.h; the baselines never checkpoint).
  /// Checkpoints durably committed at phase boundaries over the job's whole
  /// lifetime (carried across resumes, so the total is crash-invariant).
  size_t checkpoints_written = 0;
  /// Times this job was restored from a checkpoint (0 = ran uninterrupted).
  size_t resumed = 0;
};

}  // namespace power

#endif  // POWER_CORE_ER_RESULT_H_

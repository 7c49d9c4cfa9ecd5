#ifndef POWER_EVAL_EXPERIMENT_H_
#define POWER_EVAL_EXPERIMENT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/power.h"
#include "crowd/worker.h"
#include "data/table.h"
#include "eval/metrics.h"

namespace power {

/// The five methods the paper's evaluation compares.
enum class Method { kPower, kPowerPlus, kTrans, kAcd, kGcer };

const char* MethodName(Method method);
std::vector<Method> AllMethods();

/// One crowd setting an experiment runs under.
struct ExperimentSetup {
  WorkerBand band = Band90();
  WorkerModel model = WorkerModel::kExactAccuracy;
  /// Dataset-level human hardness forwarded to CrowdOracle (only the
  /// kTaskDifficulty model reads it); use the DatasetProfile's
  /// human_hardness.
  double difficulty_scale = 1.0;
  int workers_per_question = 5;
  uint64_t seed = 7;
  /// Settings for Power / Power+ (the baselines only use pruning fields).
  PowerConfig power_config;
  /// GCER question budget; 0 = set to the max of the other methods (the
  /// paper ties it to ACD). The harness fills this after running ACD.
  size_t gcer_budget = 0;
};

/// One row of a paper figure: quality + cost counters for a method, plus
/// the fault ledger (re-queued / degraded questions are zero under the
/// perfect-crowd oracle; platform-backed runs surface the crowd's failure
/// modes here).
struct ExperimentRow {
  Method method = Method::kPower;
  PrecisionRecallF quality;
  size_t questions = 0;
  size_t iterations = 0;
  double dollars = 0.0;
  /// Unanswered question postings the resolution loop re-posted.
  size_t requeued = 0;
  /// Questions that exhausted retries and fell back to the machine answer.
  size_t degraded = 0;
  /// Durable checkpoints the run committed (zero without a checkpoint path).
  size_t checkpointed = 0;
  /// Times the run restored from a checkpoint (0 = ran uninterrupted).
  size_t resumed = 0;
};

/// Runs one method over the table. `candidates` are the pruned pairs shared
/// by all methods (the paper's common preprocessing). Every method sees
/// identical crowd answers: the oracle derives votes from (seed, pair) only.
ExperimentRow RunMethod(Method method, const Table& table,
                        const std::vector<std::pair<int, int>>& candidates,
                        const ExperimentSetup& setup);

/// Runs all five methods (Fig. 9-14 column for one dataset + band):
/// ACD first so its question count can cap GCER, as in the paper.
std::vector<ExperimentRow> RunAllMethods(
    const Table& table, const std::vector<std::pair<int, int>>& candidates,
    const ExperimentSetup& setup);

}  // namespace power

#endif  // POWER_EVAL_EXPERIMENT_H_

// Repository benchmark driver: runs one workload through the library's
// public entry points, checks its outputs, and prints one JSON result line.
//
//   perfbench --workload acmpub-10k|cora-faulty-6k [--seed N] [--seconds S]
//             [--trace 0|1] [--trace-out FILE]
//
// A workload is a fixed table (generated from kDatasetSeed) plus a crowd.
// --seed picks an ensemble of kCrowds independent crowds: crowd k seeds both
// the simulated platform and PowerConfig::seed with CrowdSeed(seed, k). One
// crowd is one draw: on a fixed table, questions and dollars move by about
// 10% from crowd to crowd, and by 25-45% when the table is regenerated per
// seed, so single-crowd figures cannot be compared across seeds.
//
// One run is one process:
//   1. generate the table, serialize it to CSV and ingest it repeatedly
//      (setup_s is the median ingest);
//   2. one untimed warm-up pass with crowd 0, driven by hand, whose candidate
//      pairs back the subset check;
//   3. with --trace 0: the ask-and-color loop (PowerFramework::RunOnPairs)
//      once per crowd of the ensemble, whose means are the crowd-cost
//      metrics; then timed passes of PowerFramework::Run, pass k with crowd
//      k, until --seconds of timed work (at least kMinPasses), each of which
//      must reproduce crowd k's loop exactly;
//   4. with --trace 1: one untraced and one traced pass, both with crowd 0
//      and both reproducing the warm-up, then three reference calls outside
//      the traced pass's root span.
// Every pass builds a fresh CrowdPlatform and PlatformOracle: the oracle
// caches answers, so a reused one would make later passes free.
//
// No workload sets a checkpoint path: checkpoint commits are fdatasync-bound,
// and the benchmark writes only inside its checkout, whose disk is a shared
// virtual disk whose sync latency drifts by about 20% from minute to minute.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
// exit code is 0 only when every output check passed.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "core/power.h"
#include "crowd/pair_oracle.h"
#include "data/generator.h"
#include "data/table.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "platform/platform.h"
#include "platform/platform_oracle.h"
#include "platform/requester.h"
#include "sim/feature_cache.h"
#include "sim/pair.h"
#include "sim/simd_kernels.h"
#include "sim/similarity_matrix.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace power {
namespace perfbench {
namespace {

/// Half of the 4-core reference box: leaves headroom for neighbouring load
/// and never comes from the environment (the env guard refuses
/// POWER_THREADS).
constexpr int kThreads = 2;
constexpr uint64_t kDefaultSeed = 51;
/// Seed of every workload's table, the repo benches' shared seed.
constexpr uint64_t kDatasetSeed = 51;
/// Crowds per run: enough to bring the run-to-run spread of the ensemble
/// means to a few percent.
constexpr int kCrowds = 20;
/// Timed passes per run: at least this many so the median is a median; more
/// while the timed work is under --seconds, up to one per crowd.
constexpr int kMinPasses = 3;
/// CSV ingests per run for setup_s: at least kMinIngests, more while under
/// kIngestBudgetSeconds, up to kMaxIngests.
constexpr int kMinIngests = 9;
constexpr int kMaxIngests = 401;
constexpr double kIngestBudgetSeconds = 2.0;

uint64_t CrowdSeed(uint64_t seed, int k) {
  return seed * 1000 + static_cast<uint64_t>(k);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  DatasetProfile profile;
  SelectorKind selector;
  bool error_tolerant;
  FaultProfile fault;
};

// A paper profile extrapolated to `num_records`, keeping its
// records-per-entity ratio (the duplicate-cluster structure) intact.
DatasetProfile Extrapolate(DatasetProfile p, const char* name,
                           size_t num_records) {
  const double ratio =
      static_cast<double>(p.num_entities) / static_cast<double>(p.num_records);
  p.name = name;
  p.num_records = num_records;
  p.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_records) * ratio));
  return p;
}

// Why each workload exists, and the layer it loads, is recorded in
// BENCHMARK.json: acmpub-10k is blocking-bound with an almost free loop;
// cora-faulty-6k runs about a thousand one-question rounds against a faulty
// crowd over a lighter blocking pass.
std::optional<Workload> FindWorkload(const std::string& name) {
  if (name == "acmpub-10k") {
    return Workload{"acmpub-10k",
                    Extrapolate(AcmPubProfile(1.0), "ACMPub-10k", 10000),
                    SelectorKind::kTopoSort,
                    /*error_tolerant=*/false,
                    FaultProfile{}};
  }
  if (name == "cora-faulty-6k") {
    FaultProfile combined;
    combined.abandon_prob = 0.4;
    combined.spammer_rate = 0.2;
    combined.slow_tail_prob = 0.2;
    combined.slow_tail_multiplier = 10.0;
    combined.assignment_timeout_seconds = 600.0;
    return Workload{"cora-faulty-6k",
                    Extrapolate(CoraProfile(), "Cora-6k", 6000),
                    SelectorKind::kSinglePath,
                    /*error_tolerant=*/true,
                    combined};
  }
  return std::nullopt;
}

// Only grouping, builder, selector, error_tolerant, num_threads and seed are
// set; candidate generation and sharding stay at library defaults so changes
// to their dispatch need no benchmark edit.
PowerConfig MakeConfig(const Workload& w, uint64_t crowd_seed) {
  PowerConfig config;
  config.grouping = GroupingKind::kSplit;
  config.builder = BuilderKind::kRangeTree;
  config.selector = w.selector;
  config.error_tolerant = w.error_tolerant;
  config.num_threads = kThreads;
  config.seed = crowd_seed;
  return config;
}

PlatformConfig MakePlatformConfig(const Workload& w, uint64_t crowd_seed) {
  PlatformConfig pc;
  pc.difficulty_scale = w.profile.human_hardness;
  pc.fault = w.fault;
  pc.seed = crowd_seed;
  return pc;
}

/// One pass's crowd: a fresh marketplace and a requester with the default
/// RetryPolicy, so dollars, rounds and crowd hours come from one ledger.
struct Crowd {
  Crowd(const Table* table, const Workload& w, uint64_t crowd_seed)
      : platform(table, MakePlatformConfig(w, crowd_seed)),
        oracle(&platform, RetryPolicy{}) {}
  CrowdPlatform platform;
  PlatformOracle oracle;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  size_t round = 0;
};

class Tracer {
 public:
  int Begin(const char* name) {
    Span s;
    s.name = name;
    s.start = clock_.ElapsedSeconds();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end = clock_.ElapsedSeconds();
    stack_.pop_back();
  }
  void SetRound(int id, size_t round) { spans_[id].round = round; }
  double Duration(int id) const { return spans_[id].end - spans_[id].start; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span named `name`.
  double Total(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  }

  /// Writes every span with its self time (duration minus the part its
  /// children cover) as one JSON document.
  bool Write(const std::string& path) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"round\": %zu, \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"self_s\": %.9f}%s\n",
                   k, s.name.c_str(), s.parent, s.round, s.start, s.end,
                   s.end - s.start - child[k],
                   k + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Forwards all four PairOracle virtuals to the pass's PlatformOracle and
/// counts postings: the time of the first AskBatch (how long the crowd sat
/// idle), questions posted (reposts included) and postings that came back
/// unanswered after the requester's retries. Traced passes also get one
/// span per AskBatch.
class OracleShim final : public PairOracle {
 public:
  OracleShim(PairOracle* inner, const Stopwatch* pass_clock, Tracer* tracer)
      : inner_(inner), pass_clock_(pass_clock), tracer_(tracer) {}

  VoteResult Ask(int i, int j) override {
    NoteFirstQuestion();
    VoteResult vote = inner_->Ask(i, j);
    Count(vote);
    return vote;
  }

  std::vector<VoteResult> AskBatch(
      const std::vector<std::pair<int, int>>& pairs) override {
    NoteFirstQuestion();
    ScopedSpan span(tracer_, "platform.ask");
    std::vector<VoteResult> votes = inner_->AskBatch(pairs);
    for (const VoteResult& v : votes) Count(v);
    return votes;
  }

  std::string SaveDurableState() const override {
    return inner_->SaveDurableState();
  }
  bool RestoreDurableState(const std::string& blob) override {
    return inner_->RestoreDurableState(blob);
  }

  double first_question_s() const { return first_question_s_; }
  size_t posted() const { return posted_; }
  size_t unanswered() const { return unanswered_; }

 private:
  void NoteFirstQuestion() {
    if (first_question_s_ < 0.0) {
      first_question_s_ = pass_clock_->ElapsedSeconds();
    }
  }
  void Count(const VoteResult& v) {
    ++posted_;
    if (v.total_votes == 0) ++unanswered_;
  }

  PairOracle* inner_;
  const Stopwatch* pass_clock_;
  Tracer* tracer_;
  double first_question_s_ = -1.0;
  size_t posted_ = 0;
  size_t unanswered_ = 0;
};

// ---------------------------------------------------------------------------
// Process measurements
// ---------------------------------------------------------------------------

/// Returns freed heap to the kernel, then resets the resident-set high-water
/// mark to the current RSS, so VmHWM afterwards is the peak of what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

/// VmHWM from /proc/self/status in MiB, or -1 when unavailable.
double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

double MaxRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Order-independent digest of a matched-pair set. Passes keep digests, not
/// sets: an ensemble's worth of sets would dominate the resident memory
/// around a timed pass.
uint64_t Digest(const std::unordered_set<uint64_t>& keys) {
  uint64_t sum = 0;
  uint64_t mix = 0;
  for (uint64_t key : keys) {
    uint64_t z = key + 0x9e3779b97f4a7c15ULL;  // splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    sum += z;
    mix ^= z * 0x2545f4914f6cdd1dULL;
  }
  return sum ^ (mix << 1) ^ keys.size();
}

/// What one pass produced: the outputs that must reproduce for its crowd,
/// its timings, and its postings.
struct PassResult {
  uint64_t matched_digest = 0;
  /// Every matched pair is a candidate pair.
  bool matched_in_candidates = false;
  size_t questions = 0;
  size_t rounds = 0;
  double dollars = 0.0;
  double crowd_hours = 0.0;
  double f1 = 0.0;
  size_t num_pairs = 0;
  size_t num_groups = 0;
  size_t num_edges = 0;

  double total_s = 0.0;
  double first_question_s = 0.0;
  double peak_rss_mb = 0.0;
  size_t posted = 0;
  size_t unanswered = 0;
  size_t hits = 0;
  size_t reposted = 0;
};

/// Inputs of the loop, kept past a hand-driven pass for the crowd ensemble
/// and the reference calls.
struct Pipeline {
  std::unique_ptr<FeatureCache> features;
  std::vector<std::pair<int, int>> candidates;
  std::vector<SimilarPair> pairs;
};

/// Observations of a traced pass that its spans do not carry.
struct LoopStats {
  int root = -1;
  double cpu_s = 0.0;
  size_t colored = 0;
};

class Bench {
 public:
  Bench(Workload workload, uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  Table* mutable_table() { return &table_; }
  void SetTruth() { truth_ = TrueMatchPairs(table_); }
  bool rss_reset_ok() const { return rss_reset_ok_; }
  /// The candidate pairs of the warm-up, which every later pass must
  /// reproduce.
  void SetCandidates(std::vector<std::pair<int, int>> candidates) {
    candidates_ = std::move(candidates);
  }
  const std::vector<std::pair<int, int>>& candidates() const {
    return candidates_;
  }

  /// The crowd-ensemble loop: RunOnPairs over precomputed pairs.
  PassResult LoopOnly(const std::vector<SimilarPair>& pairs, int crowd) {
    const uint64_t crowd_seed = CrowdSeed(seed_, crowd);
    Crowd c(&table_, workload_, crowd_seed);
    Stopwatch clock;
    OracleShim shim(&c.oracle, &clock, nullptr);
    PowerResult r = PowerFramework(MakeConfig(workload_, crowd_seed))
                        .RunOnPairs(pairs, &shim);
    PassResult out;
    Harvest(r, c, shim, candidates_, &out);
    return out;
  }

  /// One timed pass through the public end-to-end entry point.
  PassResult TimedPass(int crowd) {
    const uint64_t crowd_seed = CrowdSeed(seed_, crowd);
    Crowd c(&table_, workload_, crowd_seed);
    Stopwatch clock;
    OracleShim shim(&c.oracle, &clock, nullptr);
    const PowerConfig config = MakeConfig(workload_, crowd_seed);
    rss_reset_ok_ = ResetPeakRss() && rss_reset_ok_;
    clock.Restart();
    PowerResult r = PowerFramework(config).Run(table_, &shim);
    PassResult out;
    out.total_s = clock.ElapsedSeconds();
    out.peak_rss_mb = rss_reset_ok_ ? VmHwmMb() : MaxRssMb();
    Harvest(r, c, shim, candidates_, &out);
    return out;
  }

  /// The pipeline of PowerFramework::Run driven by hand: FeatureCache,
  /// GenerateCandidates, ComputePairSimilarities, RunOnPairsJob
  /// construction, Step() per phase, Finish(). Without a tracer this is the
  /// warm-up pass.
  PassResult ManualPass(int crowd, Tracer* tracer, Pipeline* pipe,
                        LoopStats* stats) {
    const uint64_t crowd_seed = CrowdSeed(seed_, crowd);
    Crowd c(&table_, workload_, crowd_seed);
    Stopwatch clock;
    OracleShim shim(&c.oracle, &clock, tracer);
    const PowerConfig config = MakeConfig(workload_, crowd_seed);
    ScopedNumThreads threads(config.num_threads);

    PassResult out;
    const double cpu0 = CpuSeconds();
    clock.Restart();
    {
      ScopedSpan root(tracer, "pass");
      stats->root = root.id();
      {
        ScopedSpan span(tracer, "sim.features");
        pipe->features = std::make_unique<FeatureCache>(table_);
      }
      {
        ScopedSpan span(tracer, "blocking.candidates");
        pipe->candidates = GenerateCandidates(
            *pipe->features, config.prune_tau, config.candidate_method);
      }
      {
        ScopedSpan span(tracer, "sim.vectors");
        pipe->pairs = ComputePairSimilarities(
            *pipe->features, pipe->candidates, config.component_floor);
      }
      std::unique_ptr<RunOnPairsJob> job;
      {
        ScopedSpan span(tracer, "core.job_setup");
        job = std::make_unique<RunOnPairsJob>(config, pipe->pairs, &shim);
      }
      while (!job->done()) {
        const RunPhase phase = job->phase();
        const std::string name = std::string("core.") + RunPhaseName(phase);
        ScopedSpan span(tracer, name.c_str());
        job->Step();
        if (tracer != nullptr) {
          // A round starts at kSelect; the final select that finds nothing
          // left belongs to no round.
          const bool finished = phase == RunPhase::kSelect && job->done();
          tracer->SetRound(span.id(), finished ? 0 : job->round());
        }
      }
      const ColoringState& coloring = job->coloring();
      stats->colored =
          coloring.num_green() + coloring.num_red() + coloring.num_blue();
      PowerResult r;
      {
        ScopedSpan span(tracer, "core.finish");
        r = job->Finish();
      }
      Harvest(r, c, shim, pipe->candidates, &out);
    }
    stats->cpu_s = CpuSeconds() - cpu0;
    return out;
  }

 private:
  void Harvest(const PowerResult& r, const Crowd& c, const OracleShim& shim,
               const std::vector<std::pair<int, int>>& candidates,
               PassResult* out) const {
    out->matched_digest = Digest(r.matched_pairs);
    out->matched_in_candidates = true;
    for (uint64_t key : r.matched_pairs) {
      out->matched_in_candidates =
          out->matched_in_candidates &&
          std::binary_search(
              candidates.begin(), candidates.end(),
              std::make_pair(PairKeyFirst(key), PairKeySecond(key)));
    }
    out->questions = r.questions;
    out->rounds = r.iterations;
    out->dollars = c.platform.total_cost_dollars();
    out->crowd_hours = c.platform.clock().now_seconds() / 3600.0;
    out->f1 = ComputePrf(r.matched_pairs, truth_).f1;
    out->num_pairs = r.num_pairs;
    out->num_groups = r.num_groups;
    out->num_edges = r.num_edges;
    out->first_question_s = shim.first_question_s();
    out->posted = shim.posted();
    out->unanswered = shim.unanswered();
    out->hits = c.platform.hits_posted();
    out->reposted = c.oracle.requester().questions_reposted();
  }

  Workload workload_;
  uint64_t seed_;
  Table table_;
  std::unordered_set<uint64_t> truth_;
  std::vector<std::pair<int, int>> candidates_;
  bool rss_reset_ok_ = true;
};

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

class Checker {
 public:
  /// Records a failed check; returns `ok`.
  bool Expect(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what);
      ok_ = false;
    }
    return ok;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Checks one pass: it reproduces `same` (a pass with the same crowd) when
/// given, and its matched pairs are candidate pairs. Returns false when any
/// check fails.
bool CheckPass(const PassResult& p, const PassResult* same,
               const std::vector<std::pair<int, int>>& candidates,
               Checker* checker) {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    ok = checker->Expect(cond, what) && ok;
  };
  if (same != nullptr) {
    expect(p.matched_digest == same->matched_digest,
           "matched pairs differ for one crowd");
    expect(p.questions == same->questions, "questions differ for one crowd");
    expect(p.rounds == same->rounds, "rounds differ for one crowd");
    expect(p.dollars == same->dollars, "dollars differ for one crowd");
    expect(p.crowd_hours == same->crowd_hours,
           "crowd hours differ for one crowd");
  }
  expect(!candidates.empty(), "no candidate pairs");
  expect(p.num_pairs == candidates.size(),
         "pass pair count differs from the candidate count");
  expect(p.f1 > 0.0, "f1 is zero");
  expect(p.matched_in_candidates, "a matched pair is not a candidate pair");
  return ok;
}

bool SameTable(const Table& a, const Table& b) {
  if (a.num_records() != b.num_records()) return false;
  if (a.schema().num_attributes() != b.schema().num_attributes()) return false;
  for (size_t i = 0; i < a.num_records(); ++i) {
    const Record& x = a.record(i);
    const Record& y = b.record(i);
    if (x.id != y.id || x.entity_id != y.entity_id || x.values != y.values) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t k = 0; k < metrics.size(); ++k) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics[k].name, metrics[k].value,
                metrics[k].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Per-layer metrics of the traced pass plus the reference calls, which run
/// after the root span ends (and after the job is freed, so the standalone
/// graph never coexists with the job's).
std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const PassResult& traced, Tracer* tracer,
                                 Pipeline* pipe, const LoopStats& stats,
                                 double untraced_total_s, Checker* checker) {
  // Only machine-side fields are read here; the crowd seed plays no part.
  const PowerConfig config = MakeConfig(workload, 0);
  ScopedNumThreads threads(config.num_threads);

  std::vector<std::pair<int, int>> scan;
  {
    ScopedSpan span(tracer, "ref.scan");
    scan = AllPairsCandidates(*pipe->features, config.prune_tau);
  }
  checker->Expect(scan == pipe->candidates,
                  "all-pairs scan differs from the candidate vector");
  const size_t num_candidates = pipe->candidates.size();
  std::vector<std::vector<double>> sims;
  sims.reserve(pipe->pairs.size());
  for (const SimilarPair& p : pipe->pairs) sims.push_back(p.sims);
  *pipe = Pipeline{};

  std::vector<VertexGroup> grouping;
  {
    ScopedSpan span(tracer, "ref.group");
    grouping = SplitGrouper().Group(sims, config.epsilon);
  }
  const size_t groups = grouping.size();
  size_t edges = 0;
  {
    ScopedSpan span(tracer, "ref.graph");
    edges = BuildGroupedGraph(std::move(grouping)).graph.num_edges();
  }
  checker->Expect(groups == traced.num_groups,
                  "the standalone grouper disagrees with the job's groups");
  checker->Expect(edges == traced.num_edges,
                  "the standalone graph disagrees with the job's edges");

  // Per-round wall time: the loop steps of each round.
  std::vector<double> round_s(traced.rounds + 1, 0.0);
  for (const Span& s : tracer->spans()) {
    if (s.round > 0 && s.round < round_s.size()) {
      round_s[s.round] += s.end - s.start;
    }
  }
  round_s.erase(round_s.begin());
  std::sort(round_s.begin(), round_s.end());
  const size_t n = round_s.size();
  const double round_p50 = Median(round_s);
  // The highest percentile with at least ten rounds beyond it; the median
  // when there are too few rounds for any tail.
  const double round_tail = n >= 11 ? round_s[n - 11] : round_p50;

  auto d = [](size_t v) { return static_cast<double>(v); };
  const double root_s = tracer->Duration(stats.root);
  const double questions = d(std::max<size_t>(traced.questions, 1));
  return {
      {"sim.features_s", tracer->Total("sim.features"), "s"},
      {"sim.vectors_s", tracer->Total("sim.vectors"), "s"},
      {"blocking.candidates_s", tracer->Total("blocking.candidates"), "s"},
      {"blocking.candidates", d(num_candidates), "count"},
      {"blocking.scan_ref_s", tracer->Total("ref.scan"), "s"},
      {"group.s", tracer->Total("ref.group"), "s"},
      {"group.groups", d(groups), "count"},
      {"group.pairs_per_group",
       d(num_candidates) / d(std::max<size_t>(groups, 1)), "ratio"},
      {"graph.build_s", tracer->Total("ref.graph"), "s"},
      {"graph.edges", d(edges), "count"},
      {"coloring.apply_s", tracer->Total("core.apply"), "s"},
      {"coloring.inferred_per_question", d(stats.colored) / questions,
       "ratio"},
      {"select.s", tracer->Total("core.select"), "s"},
      {"select.questions_per_round",
       d(traced.questions) / d(std::max<size_t>(traced.rounds, 1)), "ratio"},
      {"core.root_s", root_s, "s"},
      {"core.job_setup_s", tracer->Total("core.job_setup"), "s"},
      {"core.post_s", tracer->Total("core.post"), "s"},
      {"core.collect_s", tracer->Total("core.collect"), "s"},
      {"core.finish_s", tracer->Total("core.finish"), "s"},
      {"core.round_p50_ms", round_p50 * 1e3, "ms"},
      {"core.round_tail_ms", round_tail * 1e3, "ms"},
      {"core.rounds_sampled", d(n), "count"},
      {"platform.ask_s", tracer->Total("platform.ask"), "s"},
      {"platform.posted", d(traced.posted), "count"},
      {"platform.unanswered", d(traced.unanswered), "count"},
      {"platform.answered_frac",
       traced.posted == 0 ? 0.0
                          : 1.0 - d(traced.unanswered) / d(traced.posted),
       "ratio"},
      {"platform.hits", d(traced.hits), "count"},
      {"platform.reposted", d(traced.reposted), "count"},
      {"process.cpu_s", stats.cpu_s, "s"},
      {"trace.overhead_frac", root_s / untraced_total_s - 1.0, "ratio"},
  };
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload acmpub-10k|cora-faulty-6k [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string arg = argv[i];
    const std::string val = argv[i + 1];
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      std::optional<int64_t> n = ParseInt(val);
      if (!n || *n < 0) return Usage(argv[0]);
      seed = static_cast<uint64_t>(*n);
    } else if (arg == "--seconds") {
      std::optional<double> s = ParseDouble(val);
      if (!s || *s <= 0.0) return Usage(argv[0]);
      seconds = *s;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage(argv[0]);
      trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return Usage(argv[0]);
    }
  }
  std::optional<Workload> workload = FindWorkload(workload_name);
  if (!workload) return Usage(argv[0]);

  // Every POWER_* knob silently changes the program being measured.
  bool env_clean = true;
  for (const EnvKnobInfo& knob : EnvKnobs()) {
    if (EnvIsSet(knob.name)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   knob.name);
      env_clean = false;
    }
  }
  if (!env_clean) return 2;

  Bench bench(*workload, seed);
  {
    ScopedNumThreads threads(kThreads);
    std::printf("# workload %s seed %" PRIu64 " threads %d simd %s\n",
                workload->name, seed, NumThreads(),
                SimdLevelName(ActiveSimdLevel()));
  }

  // The program sees only the CSV.
  Checker checker;
  const Table generated =
      DatasetGenerator(kDatasetSeed).Generate(workload->profile);
  const std::string csv = generated.ToCsv();
  std::vector<double> ingests;
  Stopwatch ingest_budget;
  while (ingests.size() < static_cast<size_t>(kMinIngests) ||
         (ingest_budget.ElapsedSeconds() < kIngestBudgetSeconds &&
          ingests.size() < static_cast<size_t>(kMaxIngests))) {
    Table t;
    Stopwatch watch;
    const bool ok = Table::FromCsv(csv, &t);
    *t.mutable_schema() = generated.schema();
    ingests.push_back(watch.ElapsedSeconds());
    checker.Expect(ok, "FromCsv rejected the generated CSV");
    *bench.mutable_table() = std::move(t);
  }
  checker.Expect(SameTable(*bench.mutable_table(), generated),
                 "the ingested table differs from the generated one");
  if (!checker.ok()) {
    PrintResult(false, 1, 1, {});
    return 1;
  }
  bench.SetTruth();

  // Warm-up with crowd 0; its candidates back every subset check and its
  // pairs feed the crowd ensemble.
  Pipeline warm;
  LoopStats warm_stats;
  const PassResult warm_pass = bench.ManualPass(0, nullptr, &warm, &warm_stats);
  bench.SetCandidates(warm.candidates);
  const std::vector<std::pair<int, int>>& candidates = bench.candidates();
  size_t attempted = 0;
  size_t failed = 0;
  auto account = [&](const PassResult& p, bool ok) {
    attempted += p.posted;
    failed += ok ? p.unanswered : p.posted;
  };
  account(warm_pass, CheckPass(warm_pass, nullptr, candidates, &checker));

  std::vector<Metric> metrics;
  if (trace) {
    // Per-layer run: crowd 0 only. One untraced pass, then the same crowd
    // under spans; both must reproduce the warm-up.
    warm = Pipeline{};
    const PassResult untraced = bench.TimedPass(0);
    account(untraced,
            CheckPass(untraced, &warm_pass, candidates, &checker));
    Tracer tracer;
    Pipeline pipe;
    LoopStats stats;
    const PassResult traced = bench.ManualPass(0, &tracer, &pipe, &stats);
    account(traced, CheckPass(traced, &warm_pass, candidates, &checker));
    checker.Expect(pipe.candidates == candidates,
                   "the traced pass's candidates differ from the warm-up's");
    metrics = LayerMetrics(*workload, traced, &tracer, &pipe, stats,
                           untraced.total_s, &checker);
    if (!trace_out.empty() && !tracer.Write(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
    PrintResult(checker.ok(), attempted, failed, metrics);
    return checker.ok() ? 0 : 1;
  }

  std::vector<PassResult> crowds;
  for (int k = 0; k < kCrowds; ++k) {
    crowds.push_back(bench.LoopOnly(warm.pairs, k));
    const PassResult& p = crowds.back();
    account(p, CheckPass(p, k == 0 ? &warm_pass : nullptr, candidates,
                         &checker));
  }
  warm = Pipeline{};

  std::vector<PassResult> passes;
  double timed = 0.0;
  while (passes.size() < static_cast<size_t>(kMinPasses) ||
         (timed < seconds && passes.size() < crowds.size())) {
    const int k = static_cast<int>(passes.size());
    passes.push_back(bench.TimedPass(k));
    const PassResult& p = passes.back();
    timed += p.total_s;
    account(p, CheckPass(p, &crowds[k], candidates, &checker));
  }
  if (!bench.rss_reset_ok()) {
    std::printf("# peak_rss_mb: kernel refused /proc/self/clear_refs; "
                "reporting ru_maxrss (process-lifetime peak)\n");
  }
  std::printf("# %zu ingests, %zu crowds, %zu timed passes:", ingests.size(),
              crowds.size(), passes.size());
  for (const PassResult& p : passes) std::printf(" %.3f", p.total_s);
  std::printf(" s\n");

  auto median_of = [&](double PassResult::*field) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(p.*field);
    return Median(v);
  };
  auto mean_of = [&](auto field) {
    double sum = 0.0;
    for (const PassResult& p : crowds) sum += static_cast<double>(p.*field);
    return sum / static_cast<double>(crowds.size());
  };
  metrics = {
      {"setup_s", Median(ingests), "s"},
      {"total_s", median_of(&PassResult::total_s), "s"},
      {"first_question_s", median_of(&PassResult::first_question_s), "s"},
      {"peak_rss_mb", median_of(&PassResult::peak_rss_mb), "MB"},
      {"questions", mean_of(&PassResult::questions), "count"},
      {"rounds", mean_of(&PassResult::rounds), "count"},
      {"dollars", mean_of(&PassResult::dollars), "USD"},
      {"crowd_hours", mean_of(&PassResult::crowd_hours), "h"},
      {"f1", mean_of(&PassResult::f1), "ratio"},
  };
  PrintResult(checker.ok(), attempted, failed, metrics);
  return checker.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace power

int main(int argc, char** argv) { return power::perfbench::Main(argc, argv); }

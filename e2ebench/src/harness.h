// Shared machinery of the end-to-end benchmark: run arguments, hermetic
// model directories, the span tracer, closed-loop request loops, result
// checking against a reference, and the metric sheet every workload fills.
//
// The benchmark calls only the public API (ByteCard, sql::AnalyzeSql,
// Optimizer::Plan, DataIngestor); every span is recorded here, around those
// calls, never inside the program.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "common/stopwatch.h"
#include "minihouse/database.h"
#include "minihouse/executor.h"
#include "workload/workload.h"

namespace e2e {

using bytecard::ByteCard;
using bytecard::Stopwatch;

// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Parent for the run's private model directory (created with mkdtemp and
  // removed when the run ends).
  std::string work_dir = ".";
};

// --- Hermetic model storage ----------------------------------------------------
// A fresh mkdtemp directory under a parent; removed (recursively) on
// destruction, so no run ever sees another run's trained artifacts.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Tracing -------------------------------------------------------------------
// One timed interval at a layer boundary. Spans of one request share
// `request`; `parent` is the enclosing span's id (0 = root). Spans whose
// duration comes from a program counter (ExecStats.plan_ms, queue_ms,
// exec_ms) are recorded as children with that duration.
struct Span {
  const char* name = "";  // a string literal
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

// In-memory span store. Disabled tracers record nothing and cost one branch
// per call, so the untraced run executes the same code path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Microseconds since the tracer was created.
  double NowUs() const { return clock_.ElapsedMicros(); }

  // A fresh span id (ids are taken when a span opens, so children closing
  // before their parent can name it).
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Stores a finished span (no-op when disabled).
  void Record(const Span& span);

  // A child whose duration is known but whose start is not: it is placed at
  // the parent's start. Only durations enter the self-time arithmetic.
  void RecordChild(const char* name, const Span& parent, double duration_us);

  std::vector<Span> spans() const;

  // Writes every span as one JSON object per line.
  void WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  Stopwatch clock_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one public call. `parent` may be null (a root span).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const Span* parent,
             int64_t request);
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  // Ends the span now (idempotent) and returns it.
  const Span& Close();
  const Span& span() const { return span_; }

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = true;
};

// Per-name durations and self times (span minus its children) in µs, one
// entry per span.
struct SpanSummary {
  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
};
SpanSummary Summarize(const std::vector<Span>& spans);

// --- Metrics -------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The two metric sets of a run: end-to-end (tracing off) and per-layer
// (tracing on), plus the human-readable provenance lines.
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> provenance;

  void AddE2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    provenance.emplace_back(key, value);
  }
  void Note(const std::string& key, double value);
};

double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double PeakRssMb();

// --- Failure accounting --------------------------------------------------------
// Every attempted request ends in exactly one of these.
enum class Outcome { kOk, kRejected, kExecError, kWrongResult };

struct Failures {
  int64_t rejected = 0;
  int64_t exec_errors = 0;
  int64_t wrong_results = 0;
  int64_t total() const { return rejected + exec_errors + wrong_results; }
  void Add(Outcome outcome);
};

// --- Closed-loop driving -------------------------------------------------------
// One completed (or failed) request as the client saw it.
struct Sample {
  double done_us = 0.0;     // completion time on the loop's timed clock
  double latency_ms = 0.0;  // Submit -> Wait return (or analyze -> plan)
  Outcome outcome = Outcome::kOk;
};

// `clients` threads each issue their fixed number of requests back to back:
// a client sends request i+1 only after request i returned. `issue(client,
// i)` performs one request and fills latency_ms and outcome; the loop stamps
// done_us on a clock started when the burst began.
using IssueFn = std::function<Sample(int client, int index)>;
std::vector<Sample> RunClosedLoop(const std::vector<int>& requests_per_client,
                                  const IssueFn& issue);

// End-to-end timing summary over a run's samples. The run is cut into
// consecutive windows of `window` completed requests (by completion order);
// qps is the median window throughput and p99 the median window p99, so a
// short burst of host slowness moves neither. p50 is over every completed
// request. Each window holds >= 1000 samples, so >= 10 lie beyond its p99.
struct LoopTiming {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int windows = 0;
  double wall_s = 0.0;
};
LoopTiming SummarizeLoop(std::vector<Sample> samples, int window);

// --- Inputs ----------------------------------------------------------------------
// The benchmark's fixed inputs: datasets, query sets and ingested batches
// are part of the benchmark's definition, so runs with different seeds
// measure the same queries on the same data; --seed drives the request
// order.
inline constexpr uint64_t kDataSeed = 20240607;
inline constexpr double kScale = 0.1;

// Figure 5's executable slice: aggregation queries plus COUNT probes whose
// true join output stays below a million rows.
std::vector<int> ExecutableSlice(const bytecard::workload::Workload& workload);

// A Zipf(s) request mix over ranks [0, n), realized exactly: every block
// of `block` consecutive picks holds rank r round(block * p_r) times
// (largest-remainder rounding, p_r proportional to 1/(r+1)^s), in an order
// shuffled by (seed, stream). Every window of a run, and every seed, then
// sends the same mix; the seed changes only the order.
std::vector<int> ZipfMix(int n, double s, int block, int count, uint64_t seed,
                         uint64_t stream);

// Group-sorted result rows; values compared with a relative tolerance
// (parallel aggregation may sum in another order).
using GroupRows = std::vector<std::pair<std::vector<int64_t>, std::vector<double>>>;
GroupRows SortedGroups(const bytecard::minihouse::AggregateResult& agg);
bool SameGroups(const GroupRows& want, const GroupRows& got);

// The reference answer to one executed query on the current data version:
// the exact truth oracle (workload::TrueCount) for a COUNT(*) without GROUP
// BY, otherwise a serial run of the same engine under the default plan.
struct Reference {
  bool scalar = false;
  int64_t count = 0;
  GroupRows groups;
};
Reference ComputeReference(const bytecard::minihouse::BoundQuery& query);
bool Matches(const Reference& ref, const bytecard::minihouse::ExecResult& got);

// --- Set-up phases -----------------------------------------------------------------
struct SetupTimes {
  double datagen_s = 0.0;
  double rbx_train_s = 0.0;
  double bootstrap_s = 0.0;
  double warmup_s = 0.0;
  double total_s() const {
    return datagen_s + rbx_train_s + bootstrap_s + warmup_s;
  }
};

// Median of each phase over the set-ups a run performed.
SetupTimes MedianSetup(const std::vector<SetupTimes>& reps);
// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupReps = 3;

// Sets up kSetupReps times from scratch, each set-up tearing the previous
// one down first, and returns the last; `*median` receives the per-phase
// medians. `set_up(State*)` returns one set-up's phase times.
template <typename State, typename SetUpFn>
std::unique_ptr<State> SetUpRepeatedly(const SetUpFn& set_up,
                                       SetupTimes* median) {
  std::vector<SetupTimes> reps;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    state = std::make_unique<State>();
    reps.push_back(set_up(state.get()));
  }
  *median = MedianSetup(reps);
  return state;
}

// Trains the workload-independent RBX artifact into `dir`; returns its path.
std::string TrainRbx(const std::string& dir);

// Bootstraps ByteCard over `db` with `hint` as the workload hint, models
// stored under `dir`.
std::unique_ptr<ByteCard> BootstrapByteCard(
    const bytecard::minihouse::Database& db,
    const std::vector<bytecard::minihouse::BoundQuery>& hint,
    const std::string& dir, const std::string& rbx_path);

// --- Shared reporting ----------------------------------------------------------------
// Fills the outcome counts and the end-to-end metrics every workload
// reports: success_rate = 1 - failures / attempts, q-error over `queries`
// on the data as it is now, stored bytes of `db`.
void ReportEndToEnd(RunReport* report, const Failures& failures,
                    int64_t attempted, const SetupTimes& setup,
                    const LoopTiming& timing, ByteCard* bytecard,
                    const std::vector<bytecard::workload::WorkloadQuery>& queries,
                    const bytecard::minihouse::Database& db);

// Per-request ExecStats totals the executor/scheduler/optimizer metrics read.
struct StatsTotals {
  int64_t requests = 0;
  int64_t estimator_calls = 0;
  int64_t memo_hits = 0;
  int64_t probe_cache_hits = 0;
  int64_t fallback_estimates = 0;
  int64_t feedback_hits = 0;
  int64_t routed_estimates = 0;
  int64_t route_fallbacks = 0;
  int64_t heavy = 0;
  int64_t parallel_tasks = 0;
  int64_t blocks_read = 0;
  int64_t blocks_pruned = 0;
  int64_t intermediate_rows = 0;
  int64_t specialized_ops = 0;
  int64_t despecialized_morsels = 0;
  int64_t agg_resize_count = 0;
  int64_t encoded_blocks_scanned = 0;
  int64_t decode_cache_hits = 0;
  int64_t decode_cache_evictions = 0;
  int64_t bytes_resident_max = 0;
  void AddExec(const bytecard::minihouse::ExecStats& stats);
  void AddPlan(const bytecard::minihouse::EstimationStats& stats);
  void Merge(const StatsTotals& other);
};

// What a traced run knows beyond its spans; metrics of layers a workload
// does not exercise read 0.
struct LayerInputs {
  StatsTotals totals;
  int64_t sql_rejected = 0;   // distinct queries the analyzer rejects
  double mine_ms = 0.0;
  // Ingest (ingest-aeolus only).
  int64_t ingest_batches = 0;
  int64_t ingest_publishes = 0;
  double ingest_rows_per_s = 0.0;
};

// Adds every per-layer metric: spans and counters of the traced requests,
// then the typed ByteCard estimation calls timed on `cardest_queries` (after
// the loop, so they do not slow the traced requests), then set-up phases.
void ReportLayers(RunReport* report, Tracer* tracer, const LayerInputs& in,
                  const LoopTiming& timing, const SetupTimes& setup,
                  ByteCard* bytecard,
                  const std::vector<bytecard::minihouse::BoundQuery>& cardest_queries);

// One SQL request through the serving front door: Submit(sql, db) then Wait,
// checked against `ref`. Traced runs record request -> scheduler.submit
// (-> optimizer.plan from ExecStats.plan_ms) and scheduler.wait (->
// scheduler.queue, executor.exec from ExecStats). Any error Status is
// returned as kExecError; TallyServeFailures later splits out the tickets
// the analyzer failed before they entered the scheduler.
Sample ServeSqlRequest(ByteCard* bytecard, const std::string& sql,
                       const bytecard::minihouse::Database& db,
                       const Reference& ref, Tracer* tracer, int64_t request,
                       StatsTotals* totals);

// Splits `samples`' error outcomes into analyzer rejections (tickets that
// never reached the scheduler: attempts minus the scheduler's submitted
// delta) and execution errors, and tallies every outcome.
Failures TallyServeFailures(const std::vector<Sample>& samples,
                            int64_t scheduler_submitted);

// --- Workload entry points --------------------------------------------------------
RunReport RunServeJob(const Args& args, Tracer* tracer);
RunReport RunPlanStats(const Args& args, Tracer* tracer);
RunReport RunIngestAeolus(const Args& args, Tracer* tracer);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_

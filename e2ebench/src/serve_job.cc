// serve-job: JOB-Hybrid's executable slice served as SQL text through
// ByteCard::Submit/Wait by two closed-loop clients at max_dop 2, Zipf-1.1
// picks, feedback off, and a decode-cache budget below the decoded working
// set. Execution dominates each request here, so this is the workload of
// the executor, morsel and decode-cache layers.

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "workload/datagen.h"

namespace e2e {
namespace {

namespace mh = bytecard::minihouse;
namespace wl = bytecard::workload;

constexpr int kClients = 2;
constexpr int kMaxDop = 2;
constexpr double kZipf = 1.1;
// Fixed work: requests per second of --seconds (about one second of
// timed work per unit on a 4-core 2.1 GHz host).
constexpr int kRequestsPerSecond = 1000;
constexpr int kWindow = 1000;
// Each client's picks repeat the exact Zipf mix every kMixBlock requests.
constexpr int kMixBlock = kWindow / kClients;
// Decode-cache budget as a share of the slice's decoded working set.
constexpr double kCacheShare = 0.25;
constexpr int kWarmupPicks = kMixBlock;

// Members are destroyed in reverse order: ByteCard (draining its
// scheduler) before the database, the database before its model directory.
struct ServeState {
  std::unique_ptr<TempDir> models;
  std::unique_ptr<mh::Database> db;
  wl::Workload workload;
  std::vector<int> slice;
  std::unique_ptr<ByteCard> bytecard;
  int64_t working_set_bytes = 0;
  int64_t cache_budget_bytes = 0;
};

SetupTimes SetUp(const Args& args, ServeState* state) {
  SetupTimes t;
  Stopwatch phase;
  state->models = std::make_unique<TempDir>(args.work_dir);
  auto db = wl::GenerateDataset("imdb", kScale, kDataSeed);
  BC_CHECK_OK(db.status());
  state->db = std::move(db).value();
  wl::WorkloadOptions options;
  options.seed = kDataSeed ^ 0x77;
  auto workload = wl::BuildWorkload(*state->db, "JOB-Hybrid", options);
  BC_CHECK_OK(workload.status());
  state->workload = std::move(workload).value();
  state->slice = ExecutableSlice(state->workload);
  t.datagen_s = phase.ElapsedSeconds();

  phase.Restart();
  const std::string rbx = TrainRbx(state->models->path() + "/rbx");
  t.rbx_train_s = phase.ElapsedSeconds();

  phase.Restart();
  std::vector<mh::BoundQuery> hint;
  for (const wl::WorkloadQuery& wq : state->workload.queries) {
    hint.push_back(wq.query);
  }
  state->bytecard = BootstrapByteCard(*state->db, hint,
                                      state->models->path() + "/imdb", rbx);
  t.bootstrap_s = phase.ElapsedSeconds();

  // Warm-up: one pass over the slice with an unbounded decode cache measures
  // the decoded working set; the budget is then cut below it and a Zipf
  // stream (independent of --seed) brings the cache to its steady state.
  phase.Restart();
  mh::SchedulerOptions sched;
  sched.optimizer.max_dop = kMaxDop;
  state->bytecard->StartServing(sched);
  state->db->SetDecodeCacheBytes(int64_t{1} << 40);
  auto run_once = [&](int pick) {
    const wl::WorkloadQuery& wq = state->workload.queries[state->slice[pick]];
    BC_CHECK_OK(state->bytecard->Wait(state->bytecard->Submit(wq.sql, *state->db))
                    .status());
  };
  for (size_t i = 0; i < state->slice.size(); ++i) run_once(static_cast<int>(i));
  state->working_set_bytes = state->db->decode_cache()->ResidentBytes();
  state->cache_budget_bytes =
      static_cast<int64_t>(state->working_set_bytes * kCacheShare);
  state->db->SetDecodeCacheBytes(state->cache_budget_bytes);
  for (int pick : ZipfMix(static_cast<int>(state->slice.size()), kZipf,
                          kMixBlock, kWarmupPicks, 0, 99)) {
    run_once(pick);
  }
  t.warmup_s = phase.ElapsedSeconds();
  return t;
}

}  // namespace

RunReport RunServeJob(const Args& args, Tracer* tracer) {
  RunReport report;
  SetupTimes setup;
  const std::unique_ptr<ServeState> owned = SetUpRepeatedly<ServeState>(
      [&](ServeState* state) { return SetUp(args, state); }, &setup);
  ServeState& state = *owned;

  // References: the truth oracle or a serial run, once per slice query (the
  // data never changes in this workload).
  std::vector<Reference> refs;
  for (int qi : state.slice) {
    refs.push_back(ComputeReference(state.workload.queries[qi].query));
  }

  const int total = kRequestsPerSecond * args.seconds;
  std::vector<int> per_client(kClients, total / kClients);
  std::vector<std::vector<int>> picks(kClients);
  for (int c = 0; c < kClients; ++c) {
    picks[c] = ZipfMix(static_cast<int>(state.slice.size()), kZipf, kMixBlock,
                       per_client[c], args.seed, c);
  }
  std::vector<StatsTotals> totals(kClients);
  const mh::SchedulerCounters before = state.bytecard->scheduler()->counters();
  const std::vector<Sample> samples = RunClosedLoop(
      per_client, [&](int c, int i) {
        const int pick = picks[c][i];
        const wl::WorkloadQuery& wq = state.workload.queries[state.slice[pick]];
        return ServeSqlRequest(state.bytecard.get(), wq.sql, *state.db,
                               refs[pick], tracer,
                               int64_t{c} * 100000000 + i + 1, &totals[c]);
      });
  const mh::SchedulerCounters after = state.bytecard->scheduler()->counters();
  const Failures failures =
      TallyServeFailures(samples, after.submitted - before.submitted);
  const LoopTiming timing = SummarizeLoop(samples, kWindow);
  ReportEndToEnd(&report, failures, static_cast<int64_t>(samples.size()),
                 setup, timing, state.bytecard.get(), state.workload.queries,
                 *state.db);

  report.Note("dataset", "imdb (JOB-Hybrid executable slice)");
  report.Note("slice_queries", static_cast<double>(state.slice.size()));
  report.Note("clients", kClients);
  report.Note("max_dop", kMaxDop);
  report.Note("zipf", kZipf);
  report.Note("mix_block", kMixBlock);
  report.Note("requests", total);
  report.Note("window", kWindow);
  report.Note("decode_cache_budget_bytes",
              static_cast<double>(state.cache_budget_bytes));
  report.Note("decoded_working_set_bytes",
              static_cast<double>(state.working_set_bytes));

  if (tracer->enabled()) {
    LayerInputs in;
    for (const StatsTotals& t : totals) in.totals.Merge(t);
    std::vector<mh::BoundQuery> queries;
    for (int qi : state.slice) queries.push_back(state.workload.queries[qi].query);
    ReportLayers(&report, tracer, in, timing, setup, state.bytecard.get(),
                 queries);
  }
  return report;
}

}  // namespace e2e

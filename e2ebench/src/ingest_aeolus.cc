// ingest-aeolus: AEOLUS-Online with incremental maintenance and feedback on,
// run in rounds of fixed size. Each round appends one stationary ad_events
// batch through DataIngestor (the maintainer and the feedback manager
// observe it), then two closed-loop clients send a fixed burst of Zipf-1.1
// picks as SQL through ByteCard::Submit/Wait. Appends, tail-block reseal,
// ApplyIngestDelta publishes and feedback invalidation run only here; the
// data fits the default decode cache. Every burst runs on one data version,
// and its results are checked against references computed on that version.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bytecard/data_ingestor.h"
#include "common/logging.h"
#include "common/rng.h"
#include "harness.h"
#include "workload/datagen.h"

namespace e2e {
namespace {

namespace mh = bytecard::minihouse;
namespace wl = bytecard::workload;

constexpr int kClients = 2;
constexpr int kMaxDop = 2;
constexpr double kZipf = 1.1;
// Fixed work per --seconds: rounds, each one small batch plus one short
// burst, so batches arrive between every few dozen queries. A batch costs
// 0.3-0.5 ms on a 4-core host whatever its size, so short bursts are what
// give ingest a share of each round (the `ingest_share` provenance note,
// about 9%) large enough for an ingest regression to move qps. Small
// batches keep the table's growth modest: 6000 rows onto 7000 in 15 s.
constexpr int kRequestsPerSecond = 4000;
constexpr int kBurstRequests = 20;
constexpr int64_t kBatchRows = 2;
// A window is 50 whole rounds: 50 batches and 1000 requests. Every client's
// share of a window is one exact Zipf block, so each window sends the same mix.
constexpr int kWindow = 1000;
constexpr int kPerClientBurst = kBurstRequests / kClients;
constexpr int kPerClientBlock = kWindow / kClients;
const char* const kIngestTable = "ad_events";

// Times one observer the ingestor calls, as a child of the open batch span.
class TimedObserver : public bytecard::IngestObserver {
 public:
  TimedObserver(bytecard::IngestObserver* inner, const char* span_name,
                Tracer* tracer)
      : inner_(inner), span_name_(span_name), tracer_(tracer) {}
  TimedObserver(const TimedObserver&) = delete;
  TimedObserver& operator=(const TimedObserver&) = delete;

  void set_batch(const Span* batch) { batch_ = batch; }

  void OnIngest(const bytecard::IngestionEvent& event) override {
    ScopedSpan span(tracer_, span_name_, batch_,
                    batch_ == nullptr ? 0 : batch_->request);
    inner_->OnIngest(event);
  }

 private:
  bytecard::IngestObserver* inner_;
  const char* span_name_;
  Tracer* tracer_;
  const Span* batch_ = nullptr;
};

// Members are destroyed in reverse order: the ingestor before the observers
// it calls, the observers before the ByteCard parts they forward to, ByteCard
// before the database.
struct IngestState {
  std::unique_ptr<TempDir> models;
  std::unique_ptr<mh::Database> db;
  wl::Workload workload;
  std::vector<int> slice;
  std::unique_ptr<ByteCard> bytecard;
  std::unique_ptr<TimedObserver> maintain;
  std::unique_ptr<TimedObserver> invalidate;
  std::unique_ptr<bytecard::DataIngestor> ingestor;
};

SetupTimes SetUp(const Args& args, Tracer* tracer, IngestState* state) {
  SetupTimes t;
  Stopwatch phase;
  state->models = std::make_unique<TempDir>(args.work_dir);
  auto db = wl::GenerateDataset("aeolus", kScale, kDataSeed);
  BC_CHECK_OK(db.status());
  state->db = std::move(db).value();
  wl::WorkloadOptions options;
  options.seed = kDataSeed ^ 0x77;
  auto workload = wl::BuildWorkload(*state->db, "AEOLUS-Online", options);
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
                                      state->models->path() + "/aeolus", rbx);
  t.bootstrap_s = phase.ElapsedSeconds();

  // Warm-up: feedback, incremental maintenance and serving on, then one
  // pass over the slice.
  phase.Restart();
  ByteCard* bc = state->bytecard.get();
  bc->EnableFeedback();
  BC_CHECK_OK(bc->EnableIncrementalMaintenance(*state->db));
  state->maintain = std::make_unique<TimedObserver>(
      bc->incremental_maintainer(), "ingest.maintain", tracer);
  state->invalidate = std::make_unique<TimedObserver>(
      bc->feedback_manager(), "ingest.feedback_invalidate", tracer);
  state->ingestor = std::make_unique<bytecard::DataIngestor>(state->db.get());
  state->ingestor->AddObserver(state->maintain.get());
  state->ingestor->AddObserver(state->invalidate.get());
  mh::SchedulerOptions sched;
  sched.optimizer.max_dop = kMaxDop;
  bc->StartServing(sched);
  for (int qi : state->slice) {
    BC_CHECK_OK(
        bc->Wait(bc->Submit(state->workload.queries[qi].sql, *state->db)).status());
  }
  t.warmup_s = phase.ElapsedSeconds();
  return t;
}

}  // namespace

RunReport RunIngestAeolus(const Args& args, Tracer* tracer) {
  RunReport report;
  SetupTimes setup;
  const std::unique_ptr<IngestState> owned = SetUpRepeatedly<IngestState>(
      [&](IngestState* state) { return SetUp(args, tracer, state); }, &setup);
  IngestState& state = *owned;
  ByteCard* bc = state.bytecard.get();
  const int slice_size = static_cast<int>(state.slice.size());
  const int64_t rows_before = state.db->FindTable(kIngestTable).value()->num_rows();
  const int64_t publishes_before =
      bc->incremental_maintainer()->stats().snapshots_published;

  const int rounds = kRequestsPerSecond * args.seconds / kBurstRequests;
  // The batches are part of the fixed input, like the dataset: every seed
  // ingests the same rows, so the data versions (and q-errors) repeat.
  bytecard::Rng batch_rng(kDataSeed + 5);
  std::vector<std::vector<int>> picks(kClients);
  for (int c = 0; c < kClients; ++c) {
    picks[c] = ZipfMix(slice_size, kZipf, kPerClientBlock,
                       rounds * kPerClientBurst, args.seed, c);
  }
  const std::vector<int> per_client(kClients, kPerClientBurst);
  std::vector<Sample> samples;
  std::vector<StatsTotals> totals(kClients);
  int64_t scheduler_submitted = 0;
  // The timed clock runs through each round's batch and burst, so every
  // window carries its rounds' ingest time; computing references is untimed.
  double round_offset_us = 0.0;
  double ingest_s = 0.0;
  int64_t rows_ingested = 0;
  int64_t next_request = 1;
  for (int round = 0; round < rounds; ++round) {
    {
      ScopedSpan batch(tracer, "ingest.batch", nullptr, next_request++);
      state.maintain->set_batch(&batch.span());
      state.invalidate->set_batch(&batch.span());
      Stopwatch timer;
      auto event = state.ingestor->IngestStationaryBatch(kIngestTable, kBatchRows,
                                                         &batch_rng);
      const double batch_s = timer.ElapsedSeconds();
      ingest_s += batch_s;
      round_offset_us += batch_s * 1e6;
      BC_CHECK_OK(event.status());
      rows_ingested += event.value().rows_added;
      batch.Close();
      state.maintain->set_batch(nullptr);
      state.invalidate->set_batch(nullptr);
    }

    // References for this round's picks on the new data version.
    const int first_pick = round * kPerClientBurst;
    std::map<int, Reference> refs;
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerClientBurst; ++i) {
        const int pick = picks[c][first_pick + i];
        if (refs.count(pick) == 0) {
          refs[pick] =
              ComputeReference(state.workload.queries[state.slice[pick]].query);
        }
      }
    }

    const int64_t first_request = next_request;
    next_request += kBurstRequests;
    const mh::SchedulerCounters before = bc->scheduler()->counters();
    std::vector<Sample> burst = RunClosedLoop(per_client, [&](int c, int i) {
      const int pick = picks[c][first_pick + i];
      return ServeSqlRequest(bc, state.workload.queries[state.slice[pick]].sql,
                             *state.db, refs.at(pick), tracer,
                             first_request + c * kPerClientBurst + i, &totals[c]);
    });
    scheduler_submitted += bc->scheduler()->counters().submitted - before.submitted;
    double burst_end_us = 0.0;
    for (Sample& s : burst) {
      burst_end_us = std::max(burst_end_us, s.done_us);
      s.done_us += round_offset_us;
    }
    round_offset_us += burst_end_us;
    samples.insert(samples.end(), burst.begin(), burst.end());
  }
  const Failures failures = TallyServeFailures(samples, scheduler_submitted);
  const LoopTiming timing = SummarizeLoop(samples, kWindow);
  ReportEndToEnd(&report, failures, static_cast<int64_t>(samples.size()),
                 setup, timing, bc, state.workload.queries, *state.db);

  const double ingest_rows_per_s = rows_ingested / std::max(ingest_s, 1e-9);
  report.Note("dataset", "aeolus (AEOLUS-Online executable slice)");
  report.Note("slice_queries", slice_size);
  report.Note("clients", kClients);
  report.Note("max_dop", kMaxDop);
  report.Note("zipf", kZipf);
  report.Note("rounds", rounds);
  report.Note("burst_requests", kBurstRequests);
  report.Note("batch_rows", static_cast<double>(kBatchRows));
  report.Note("requests", static_cast<double>(rounds) * kBurstRequests);
  report.Note("rounds_per_window", kWindow / kBurstRequests);
  report.Note("window", kWindow);
  report.Note("ingest_rows_per_s", ingest_rows_per_s);
  report.Note("ingest_share", ingest_s / std::max(round_offset_us / 1e6, 1e-9));
  report.Note("rows_before", static_cast<double>(rows_before));
  report.Note("rows_ingested", static_cast<double>(rows_ingested));
  report.Note("decode_cache_budget_bytes",
              static_cast<double>(state.db->decode_cache()->budget_bytes()));
  report.Note("decode_cache_resident_bytes",
              static_cast<double>(state.db->decode_cache()->ResidentBytes()));

  if (tracer->enabled()) {
    LayerInputs in;
    for (const StatsTotals& t : totals) in.totals.Merge(t);
    in.ingest_batches = rounds;
    in.ingest_publishes =
        bc->incremental_maintainer()->stats().snapshots_published - publishes_before;
    in.ingest_rows_per_s = ingest_rows_per_s;
    std::vector<mh::BoundQuery> queries;
    for (int qi : state.slice) queries.push_back(state.workload.queries[qi].query);
    ReportLayers(&report, tracer, in, timing, setup, bc, queries);
  }
  return report;
}

}  // namespace e2e

// plan-stats: the 200 STATS-Hybrid queries, analyzed (sql::AnalyzeSql) and
// planned (Optimizer::Plan on a QueryContext over ByteCard) by four
// closed-loop clients; nothing executes. Set-up enables feedback, executes a
// warm-up slice generated with another seed once and mines routes from its
// trace, so planning runs on 2-8-table joins with routing and the feedback
// cache live. Planning is all of the work here: the optimizer and cardest
// layers, with the executor idle.

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "harness.h"
#include "minihouse/query_context.h"
#include "sql/analyzer.h"
#include "workload/datagen.h"

namespace e2e {
namespace {

namespace mh = bytecard::minihouse;
namespace wl = bytecard::workload;

// Four planning clients, one per CPU of a 4-core host: a single client
// rides whichever CPU it lands on, and on a shared host one CPU's speed can
// drift 2-3x for seconds at a time, so one-client runs do not repeat.
constexpr int kClients = 4;
// Fixed work: every client makes this many passes over the queries per
// second of --seconds.
constexpr int kPassesPerSecond = 15;
constexpr int kWindow = 4000;
constexpr uint64_t kQuerySeed = kDataSeed ^ 0x77;
constexpr uint64_t kWarmupTraceSeed = kDataSeed ^ 0x5eed;

// ByteCard is declared after the database, so it is destroyed first.
struct PlanState {
  std::unique_ptr<TempDir> models;
  std::unique_ptr<mh::Database> db;
  wl::Workload workload;       // the measured queries
  wl::Workload warmup;         // the historical trace routes are mined from
  std::vector<int> warmup_slice;
  std::unique_ptr<ByteCard> bytecard;
  mh::Optimizer optimizer;
  double mine_ms = 0.0;
  bytecard::routing::RouteMinerReport mined;
  // Per measured query: its plan from the untimed warm-up pass (the
  // reference every timed plan must equal), or rejected by the analyzer.
  std::vector<bool> rejected;
  std::vector<mh::PhysicalPlan> reference;
};

bool SamePlan(const mh::PhysicalPlan& a, const mh::PhysicalPlan& b) {
  if (a.join_order != b.join_order || a.join_dop != b.join_dop ||
      a.agg_dop != b.agg_dop || a.group_ndv_hint != b.group_ndv_hint ||
      a.scans.size() != b.scans.size()) {
    return false;
  }
  for (size_t i = 0; i < a.scans.size(); ++i) {
    if (a.scans[i].reader != b.scans[i].reader ||
        a.scans[i].filter_order != b.scans[i].filter_order ||
        a.scans[i].dop != b.scans[i].dop) {
      return false;
    }
  }
  return true;
}

wl::Workload BuildStatsWorkload(const mh::Database& db, uint64_t seed) {
  wl::WorkloadOptions options;
  options.seed = seed;
  auto workload = wl::BuildWorkload(db, "STATS-Hybrid", options);
  BC_CHECK_OK(workload.status());
  return std::move(workload).value();
}

SetupTimes SetUp(const Args& args, PlanState* state) {
  SetupTimes t;
  Stopwatch phase;
  state->models = std::make_unique<TempDir>(args.work_dir);
  auto db = wl::GenerateDataset("stats", kScale, kDataSeed);
  BC_CHECK_OK(db.status());
  state->db = std::move(db).value();
  state->workload = BuildStatsWorkload(*state->db, kQuerySeed);
  state->warmup = BuildStatsWorkload(*state->db, kWarmupTraceSeed);
  state->warmup_slice = ExecutableSlice(state->warmup);
  t.datagen_s = phase.ElapsedSeconds();

  phase.Restart();
  const std::string rbx = TrainRbx(state->models->path() + "/rbx");
  t.rbx_train_s = phase.ElapsedSeconds();

  phase.Restart();
  std::vector<mh::BoundQuery> hint;
  for (const wl::WorkloadQuery& wq : state->warmup.queries) {
    hint.push_back(wq.query);
  }
  state->bytecard = BootstrapByteCard(*state->db, hint,
                                      state->models->path() + "/stats", rbx);
  t.bootstrap_s = phase.ElapsedSeconds();

  // Warm-up: execute the historical slice once with feedback on, mine
  // routes from its trace, then plan every measured query once.
  phase.Restart();
  state->bytecard->EnableFeedback();
  for (int qi : state->warmup_slice) {
    BC_CHECK_OK(mh::PlanAndExecute(state->warmup.queries[qi].query,
                                   state->optimizer, state->bytecard.get())
                    .status());
  }
  Stopwatch mine;
  auto mined = state->bytecard->MineRoutes(*state->db);
  BC_CHECK_OK(mined.status());
  state->mined = mined.value();
  state->mine_ms = mine.ElapsedMillis();
  state->rejected.clear();
  state->reference.clear();
  for (const wl::WorkloadQuery& wq : state->workload.queries) {
    auto bound = bytecard::sql::AnalyzeSql(wq.sql, *state->db);
    state->rejected.push_back(!bound.ok());
    mh::PhysicalPlan plan;
    if (bound.ok()) {
      mh::QueryContext ctx(state->bytecard.get());
      plan = state->optimizer.Plan(bound.value(), &ctx);
    }
    state->reference.push_back(std::move(plan));
  }
  t.warmup_s = phase.ElapsedSeconds();
  return t;
}

}  // namespace

RunReport RunPlanStats(const Args& args, Tracer* tracer) {
  RunReport report;
  SetupTimes setup;
  const std::unique_ptr<PlanState> owned = SetUpRepeatedly<PlanState>(
      [&](PlanState* state) { return SetUp(args, state); }, &setup);
  PlanState& state = *owned;
  const int num_queries = static_cast<int>(state.workload.queries.size());

  // The request sequence: each client makes passes over the queries, every
  // pass in its own seeded order.
  const int passes = kPassesPerSecond * args.seconds;
  const int total = kClients * passes * num_queries;
  std::vector<int> per_client(kClients, passes * num_queries);
  std::vector<std::vector<int>> order(kClients);
  for (int c = 0; c < kClients; ++c) {
    bytecard::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 17 + c);
    for (int p = 0; p < passes; ++p) {
      std::vector<int> pass(num_queries);
      for (int q = 0; q < num_queries; ++q) pass[q] = q;
      rng.Shuffle(&pass);
      order[c].insert(order[c].end(), pass.begin(), pass.end());
    }
  }

  std::vector<StatsTotals> totals(kClients);
  const std::vector<Sample> samples = RunClosedLoop(per_client, [&](int c, int i) {
    const int q = order[c][i];
    const int64_t request = int64_t{c} * 100000000 + i + 1;
    Sample sample;
    Stopwatch timer;
    ScopedSpan root(tracer, "request", nullptr, request);
    ScopedSpan analyze(tracer, "sql.analyze", &root.span(), request);
    auto bound = bytecard::sql::AnalyzeSql(state.workload.queries[q].sql, *state.db);
    analyze.Close();
    if (!bound.ok()) {
      sample.latency_ms = timer.ElapsedMillis();
      sample.outcome = Outcome::kRejected;
      return sample;
    }
    ScopedSpan plan_span(tracer, "optimizer.plan", &root.span(), request);
    mh::QueryContext ctx(state.bytecard.get());
    const mh::PhysicalPlan plan = state.optimizer.Plan(bound.value(), &ctx);
    plan_span.Close();
    sample.latency_ms = timer.ElapsedMillis();
    root.Close();
    totals[c].AddPlan(plan.estimation);
    sample.outcome = !state.rejected[q] && SamePlan(state.reference[q], plan)
                         ? Outcome::kOk
                         : Outcome::kWrongResult;
    return sample;
  });
  Failures failures;
  for (const Sample& s : samples) failures.Add(s.outcome);
  const LoopTiming timing = SummarizeLoop(samples, kWindow);
  ReportEndToEnd(&report, failures, static_cast<int64_t>(samples.size()),
                 setup, timing, state.bytecard.get(), state.workload.queries,
                 *state.db);

  int64_t rejected_queries = 0;
  for (bool r : state.rejected) rejected_queries += r ? 1 : 0;
  report.Note("dataset", "stats (STATS-Hybrid, all queries)");
  report.Note("queries", num_queries);
  report.Note("warmup_trace_queries", static_cast<double>(state.warmup_slice.size()));
  report.Note("clients", kClients);
  report.Note("max_dop", mh::OptimizerOptions().max_dop);
  report.Note("passes_per_client", passes);
  report.Note("requests", total);
  report.Note("window", kWindow);
  report.Note("routes_mined", static_cast<double>(state.mined.classes_routed));
  report.Note("rejected_queries", static_cast<double>(rejected_queries));

  if (tracer->enabled()) {
    LayerInputs in;
    for (const StatsTotals& t : totals) in.totals.Merge(t);
    in.sql_rejected = rejected_queries;
    in.mine_ms = state.mine_ms;
    std::vector<mh::BoundQuery> queries;
    for (int q = 0; q < num_queries; ++q) {
      if (!state.rejected[q]) {
        queries.push_back(
            bytecard::sql::AnalyzeSql(state.workload.queries[q].sql, *state.db)
                .value());
      }
    }
    ReportLayers(&report, tracer, in, timing, setup, state.bytecard.get(),
                 queries);
  }
  return report;
}

}  // namespace e2e

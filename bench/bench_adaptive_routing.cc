// Adaptive-routing study for the mined per-class estimator dispatch: runs
// each workload family twice — leg A on the one-size-fits-all general router
// (BN -> FactorJoin -> traditional), then mines the feedback trace into a
// RoutingTable and replays the same workload as leg B with per-class routing
// live. Planning latency is then compared on two pinned snapshots, the
// general router's (pinned before mining) and the routed one (pinned after):
// the slice is planned on each, alternating, kTimingRounds times, and the
// medians are compared. Asserts internally that every hot template the miner
// promoted keeps a per-template median q-error no worse than the general
// router's, that at least one workload family whose routed leg served routed
// estimates wins on median planning latency, and that routed estimates
// actually flowed. Writes BENCH_adaptive_routing.json.
//
// Usage: bench_adaptive_routing [--smoke]
//   --smoke (or BYTECARD_SMOKE=1): tiny scale + short workloads — the CI
//   gate in ci/check.sh.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "bytecard/routing/route_miner.h"
#include "bytecard/routing/routing_table.h"
#include "minihouse/feedback.h"
#include "minihouse/optimizer.h"
#include "workload/truth.h"

namespace bytecard::bench {
namespace {

// Planning passes over the executable slice per snapshot in the latency
// comparison.
constexpr int kTimingRounds = 5;

struct LegTotals {
  int64_t queries = 0;
  int64_t estimator_calls = 0;
  int64_t route_classes = 0;
  int64_t routed_estimates = 0;
  int64_t route_fallbacks = 0;
};

// Per-route-class q-errors harvested from one leg's feedback trace: the
// recorded estimate-vs-actual pairs of every operator, grouped by the
// operand-free template the operators stamped.
std::map<std::string, std::vector<double>> ClassQErrors(
    const std::vector<minihouse::QueryFeedback>& trace) {
  std::map<std::string, std::vector<double>> classes;
  for (const minihouse::QueryFeedback& fb : trace) {
    for (const minihouse::OperatorFeedback& op : fb.ops) {
      if (op.route_class.empty() || op.actual < 0.0) continue;
      classes[op.route_class].push_back(
          minihouse::FeedbackQError(op.estimated, op.actual));
    }
  }
  return classes;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 1.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct TemplateOutcome {
  std::string route_class;
  std::string family;
  int64_t samples = 0;
  double general_median = 0.0;  // leg A (trace-measured)
  double routed_median = 0.0;   // leg B (trace-measured)
};

struct DatasetReport {
  std::string dataset;
  std::string workload_name;
  LegTotals general;  // leg A
  LegTotals routed;   // leg B
  // Median over kTimingRounds of the slice's total planning time.
  double plan_nanos_general = 0.0;
  double plan_nanos_routed = 0.0;
  routing::RouteMinerReport miner;
  int64_t routes_published = 0;
  std::vector<TemplateOutcome> hot_templates;  // promoted classes only
  bool qerror_regression = false;
};

LegTotals RunLeg(BenchContext& ctx, const std::vector<int>& executable) {
  LegTotals totals;
  const minihouse::Optimizer optimizer;
  for (int qi : executable) {
    const auto& wq = ctx.workload.queries[qi];
    auto result =
        minihouse::PlanAndExecute(wq.query, optimizer, ctx.bytecard.get());
    BC_CHECK_OK(result.status());
    const minihouse::ExecStats& stats = result.value().stats;
    ++totals.queries;
    totals.estimator_calls += stats.estimator_calls;
    totals.route_classes += stats.route_classes;
    totals.routed_estimates += stats.routed_estimates;
    totals.route_fallbacks += stats.route_fallbacks;
  }
  return totals;
}

// Total time inside Optimizer::Plan for the slice, planned on `pinned`.
int64_t PlanSliceNanos(const BenchContext& ctx,
                       const std::vector<int>& executable,
                       minihouse::CardinalityEstimator* pinned) {
  const minihouse::Optimizer optimizer;
  int64_t nanos = 0;
  for (int qi : executable) {
    nanos += optimizer.Plan(ctx.workload.queries[qi].query, pinned)
                 .estimation.planning_nanos;
  }
  return nanos;
}

DatasetReport RunDataset(const std::string& dataset, bool smoke) {
  BenchContextOptions options;
  options.build_traditional = false;
  if (smoke) {
    options.scale = 0.02;
    options.count_queries = 36;
    options.agg_queries = 8;
  }
  BenchContext ctx = BuildBenchContext(dataset, options);
  ctx.bytecard->EnableFeedback();
  // Both legs must measure the *estimator*, not the feedback cache: leg B
  // replays leg A's fingerprints, and cache-served actuals would fake
  // perfect q-errors while bypassing the routed dispatch entirely.
  ctx.bytecard->feedback_manager()->set_serve_from_cache(false);

  // The executable slice, as in Figure 5: aggregation queries plus the COUNT
  // probes whose true join output stays bounded — both legs must measure
  // planning and routed estimation, not the materialization of a probe whose
  // true cardinality was never meant to be executed.
  std::vector<int> executable;
  for (int qi = 0; qi < static_cast<int>(ctx.workload.queries.size()); ++qi) {
    const auto& wq = ctx.workload.queries[qi];
    if (!wq.aggregate) {
      auto truth = workload::TrueCount(wq.query);
      BC_CHECK_OK(truth.status());
      if (truth.value() > 1000000) continue;
    }
    executable.push_back(qi);
  }
  BC_CHECK(!executable.empty());

  DatasetReport report;
  report.dataset = dataset;
  report.workload_name = ctx.workload_name;

  // Leg A: the general tiered router, one estimator fits every template.
  report.general = RunLeg(ctx, executable);
  const auto general_classes =
      ClassQErrors(ctx.bytecard->feedback_manager()->log().Snapshot());

  // Mine the trace leg A produced, publish the routing table, clear the log
  // so leg B's records can be compared class-for-class. The pins on either
  // side of mining are the two snapshots the latency comparison plans on.
  const std::shared_ptr<minihouse::CardinalityEstimator> general_pin =
      ctx.bytecard->PinSnapshot();
  auto mined = ctx.bytecard->MineRoutes(*ctx.db);
  BC_CHECK_OK(mined.status());
  report.miner = mined.value();
  std::shared_ptr<const routing::RoutingTable> routes =
      ctx.bytecard->routing_table();
  BC_CHECK(routes != nullptr);
  report.routes_published = static_cast<int64_t>(routes->size());
  ctx.bytecard->feedback_manager()->log().Drain();
  const std::shared_ptr<minihouse::CardinalityEstimator> routed_pin =
      ctx.bytecard->PinSnapshot();

  // Leg B: identical workload, per-class routing live.
  report.routed = RunLeg(ctx, executable);
  const auto routed_classes =
      ClassQErrors(ctx.bytecard->feedback_manager()->log().Drain());

  // Planning latency, general vs routed snapshot: alternate which goes first
  // so drift in machine state favours neither, and compare medians.
  std::vector<double> general_nanos;
  std::vector<double> routed_nanos;
  for (int round = 0; round < kTimingRounds; ++round) {
    const bool general_first = round % 2 == 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool general = (leg == 0) == general_first;
      (general ? general_nanos : routed_nanos)
          .push_back(static_cast<double>(PlanSliceNanos(
              ctx, executable,
              general ? general_pin.get() : routed_pin.get())));
    }
  }
  report.plan_nanos_general = Median(general_nanos);
  report.plan_nanos_routed = Median(routed_nanos);

  // Per-template verdicts for every class the miner actually promoted away
  // from the general router.
  for (const auto& [cls, decision] : routes->routes()) {
    if (decision.family == routing::RouteFamily::kGeneral ||
        decision.family == routing::RouteFamily::kCachedActual) {
      continue;
    }
    auto before = general_classes.find(cls);
    auto after = routed_classes.find(cls);
    if (before == general_classes.end() || after == routed_classes.end()) {
      continue;
    }
    TemplateOutcome outcome;
    outcome.route_class = cls;
    outcome.family = routing::RouteFamilyName(decision.family);
    outcome.samples = decision.samples;
    outcome.general_median = Median(before->second);
    outcome.routed_median = Median(after->second);
    // The replay guarantee: the miner only promoted families whose median on
    // these very records was no worse, and models did not change between the
    // legs — a regression here means dispatch and mining disagree.
    if (outcome.routed_median > outcome.general_median * (1.0 + 1e-9)) {
      report.qerror_regression = true;
    }
    report.hot_templates.push_back(std::move(outcome));
  }
  return report;
}

void WriteJson(const std::vector<DatasetReport>& reports, bool smoke) {
  const char* path = "BENCH_adaptive_routing.json";
  FILE* f = std::fopen(path, "w");
  BC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"bench\": \"adaptive_routing\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"scale\": %.4f,\n", smoke ? 0.02 : ScaleFactor());
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(BenchSeed()));
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& r = reports[i];
    const double speedup = r.plan_nanos_routed > 0
                               ? r.plan_nanos_general / r.plan_nanos_routed
                               : 0.0;
    std::fprintf(f, "    {\"dataset\": \"%s\", \"workload\": \"%s\",\n",
                 r.dataset.c_str(), r.workload_name.c_str());
    std::fprintf(f,
                 "     \"queries\": %lld, \"classes_seen\": %lld,"
                 " \"routes_published\": %lld, \"classes_routed\": %lld,\n",
                 static_cast<long long>(r.general.queries),
                 static_cast<long long>(r.miner.classes_seen),
                 static_cast<long long>(r.routes_published),
                 static_cast<long long>(r.miner.classes_routed));
    std::fprintf(
        f,
        "     \"plan_rounds\": %d, \"plan_nanos_median_general\": %.0f,"
        " \"plan_nanos_median_routed\": %.0f, \"planning_speedup\": %.3f,\n",
        kTimingRounds, r.plan_nanos_general, r.plan_nanos_routed, speedup);
    std::fprintf(f,
                 "     \"routed_estimates\": %lld, \"route_fallbacks\": %lld,"
                 " \"route_classes_hit\": %lld,\n",
                 static_cast<long long>(r.routed.routed_estimates),
                 static_cast<long long>(r.routed.route_fallbacks),
                 static_cast<long long>(r.routed.route_classes));
    std::fprintf(f, "     \"hot_templates\": [\n");
    for (size_t t = 0; t < r.hot_templates.size(); ++t) {
      const TemplateOutcome& o = r.hot_templates[t];
      std::fprintf(f,
                   "       {\"family\": \"%s\", \"samples\": %lld,"
                   " \"general_median_qerror\": %.4f,"
                   " \"routed_median_qerror\": %.4f}%s\n",
                   o.family.c_str(), static_cast<long long>(o.samples),
                   o.general_median, o.routed_median,
                   t + 1 < r.hot_templates.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Run(bool smoke) {
  std::vector<DatasetReport> reports;
  int64_t total_routed_estimates = 0;
  int datasets_with_latency_win = 0;
  for (const std::string dataset : {"stats", "imdb", "aeolus"}) {
    reports.push_back(RunDataset(dataset, smoke));
    const DatasetReport& r = reports.back();

    PrintRow({"dataset", "queries", "routes", "routed est", "fallbacks",
              "plan ns med (general)", "plan ns med (routed)"});
    PrintRow({r.dataset, std::to_string(r.general.queries),
              std::to_string(r.routes_published),
              std::to_string(r.routed.routed_estimates),
              std::to_string(r.routed.route_fallbacks),
              Fmt(r.plan_nanos_general), Fmt(r.plan_nanos_routed)});
    PrintRow({"template", "family", "samples", "qerr med (general)",
              "qerr med (routed)"});
    for (const TemplateOutcome& o : r.hot_templates) {
      PrintRow({o.route_class.substr(0, 40), o.family,
                std::to_string(o.samples), Fmt(o.general_median),
                Fmt(o.routed_median)});
    }

    // Every promoted template must hold its mined accuracy on the replay.
    std::fflush(stdout);
    BC_CHECK(!r.qerror_regression)
        << r.dataset << ": a routed template's median q-error regressed "
        << "past the general router's";
    total_routed_estimates += r.routed.routed_estimates;
    // A family wins only if routing actually served its estimates: with
    // nothing routed both snapshots answer identically, and any gap is
    // noise.
    if (r.routed.routed_estimates > 0 &&
        r.plan_nanos_routed < r.plan_nanos_general) {
      ++datasets_with_latency_win;
    }
  }
  // Report before the gates so a failing run still leaves its numbers.
  WriteJson(reports, smoke);
  std::fflush(stdout);
  BC_CHECK(total_routed_estimates > 0)
      << "no estimate was ever served by a mined route";
  BC_CHECK(datasets_with_latency_win >= 1)
      << "routing won median planning latency on no workload family that "
      << "served routed estimates";
  return 0;
}

}  // namespace
}  // namespace bytecard::bench

int main(int argc, char** argv) {
  bool smoke = std::getenv("BYTECARD_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return bytecard::bench::Run(smoke);
}

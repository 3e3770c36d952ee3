// Execution oracle: the COUNT(*) queries of the paper's workloads, executed
// under every combination of dop x late projection x SIP x kernel
// specialization, must return workload::TrueCount — an independent engine
// (count message passing over the join tree) that never runs a join
// operator. Results are checked against that truth, not against another
// engine configuration.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "minihouse/executor.h"
#include "workload/datagen.h"
#include "workload/truth.h"
#include "workload/workload.h"

namespace bytecard::minihouse {
namespace {

constexpr double kScale = 0.05;
constexpr uint64_t kDataSeed = 20240607;
// Queries whose true count exceeds this are skipped: the executor
// materializes join prefixes, and a test should stay small.
constexpr int64_t kMaxExecutableCount = 2'000'000;

struct EngineConfig {
  int dop = 1;
  bool prune_columns = true;
  bool use_sip = true;
  bool specialize_ops = true;

  std::string ToString() const {
    return "dop=" + std::to_string(dop) +
           " prune=" + std::to_string(prune_columns) +
           " sip=" + std::to_string(use_sip) +
           " specialize=" + std::to_string(specialize_ops);
  }
};

std::vector<EngineConfig> ConfigLattice() {
  std::vector<EngineConfig> configs;
  for (int dop : {1, 4}) {
    for (bool prune : {false, true}) {
      for (bool sip : {false, true}) {
        for (bool specialize : {false, true}) {
          configs.push_back({dop, prune, sip, specialize});
        }
      }
    }
  }
  return configs;
}

PhysicalPlan PlanFor(const BoundQuery& query, const EngineConfig& config) {
  PhysicalPlan plan;
  plan.scans.resize(query.tables.size());
  for (TableScanPlan& scan : plan.scans) scan.dop = config.dop;
  plan.join_dop.assign(query.tables.size(), config.dop);
  plan.agg_dop = config.dop;
  plan.prune_columns = config.prune_columns;
  plan.use_sip = config.use_sip;
  plan.specialize_ops = config.specialize_ops;
  return plan;
}

// Executes up to `max_queries` COUNT(*) queries (all when negative) of
// `workload_name` under every engine configuration and compares each count
// with the truth. Returns how many queries were checked.
int ExpectCountsMatchTruth(const std::string& workload_name,
                           int max_queries) {
  auto dataset = workload::DatasetOf(workload_name);
  EXPECT_TRUE(dataset.ok());
  if (!dataset.ok()) return 0;
  auto db = workload::GenerateDataset(dataset.value(), kScale, kDataSeed);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return 0;
  workload::WorkloadOptions options;
  options.num_agg_queries = 1;  // 0 would mean the workload's default
  auto wl = workload::BuildWorkload(*db.value(), workload_name, options);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  if (!wl.ok()) return 0;

  const std::vector<EngineConfig> configs = ConfigLattice();
  int checked = 0;
  for (const workload::WorkloadQuery& wq : wl.value().queries) {
    if (wq.aggregate) continue;
    if (max_queries >= 0 && checked >= max_queries) break;
    auto truth = workload::TrueCount(wq.query);
    EXPECT_TRUE(truth.ok()) << wq.sql;
    if (!truth.ok() || truth.value() > kMaxExecutableCount) continue;
    ++checked;
    for (const EngineConfig& config : configs) {
      auto result = ExecuteQuery(wq.query, PlanFor(wq.query, config));
      EXPECT_TRUE(result.ok())
          << result.status().ToString() << "\n" << wq.sql << "\n"
          << config.ToString();
      if (!result.ok()) continue;
      const AggregateResult& agg = result.value().agg;
      // COUNT(*) without GROUP BY: one group, or none over an empty input.
      EXPECT_EQ(agg.num_groups, truth.value() > 0 ? 1 : 0)
          << wq.sql << "\n" << config.ToString();
      const int64_t count =
          agg.num_groups == 1 ? static_cast<int64_t>(agg.agg_values[0][0])
                              : 0;
      EXPECT_EQ(count, truth.value()) << wq.sql << "\n" << config.ToString();
    }
  }
  return checked;
}

TEST(ExecOracleTest, StatsCountQueriesMatchTruth) {
  EXPECT_GT(ExpectCountsMatchTruth("STATS-Hybrid", -1), 0);
}

TEST(ExecOracleTest, ImdbCountQueriesMatchTruth) {
  EXPECT_GT(ExpectCountsMatchTruth("JOB-Hybrid", -1), 0);
}

TEST(ExecOracleTest, AeolusCountQueriesMatchTruth) {
  EXPECT_GT(ExpectCountsMatchTruth("AEOLUS-Online", -1), 0);
}

// A few queries of each workload: small enough for the sanitizer builds.
TEST(ExecOracleTest, SliceOfEveryWorkloadMatchesTruth) {
  for (const char* name : {"STATS-Hybrid", "JOB-Hybrid", "AEOLUS-Online"}) {
    EXPECT_GT(ExpectCountsMatchTruth(name, 6), 0) << name;
  }
}

}  // namespace
}  // namespace bytecard::minihouse

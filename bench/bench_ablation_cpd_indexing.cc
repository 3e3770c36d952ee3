// Ablation (paper §4.1 InitContext design): inference over the frozen,
// flat-indexed CPD array and evidence-free messages vs the naive recursive
// tree walk the paper's CPD-indexing optimization replaces, plus the
// FactorJoin marginal and InitContext itself. google-benchmark
// microbenchmark.

#include <benchmark/benchmark.h>

#include "cardest/bayes/bayes_net.h"
#include "common/rng.h"
#include "workload/datagen.h"

namespace bytecard::bench {
namespace {

struct Fixture {
  std::unique_ptr<minihouse::Database> db;
  std::unique_ptr<cardest::BayesNetModel> model;
  std::unique_ptr<cardest::BnInferenceContext> context;
  std::vector<minihouse::Conjunction> queries;
  int marginal_column = -1;

  Fixture() {
    db = workload::GenerateStats(0.1, 77).value();
    const minihouse::Table* posts = db->FindTable("posts").value();
    cardest::BnTrainOptions options;
    options.max_train_rows = 0;
    model = std::make_unique<cardest::BayesNetModel>(
        cardest::BayesNetModel::Train(*posts, options).value());
    context = std::make_unique<cardest::BnInferenceContext>(model.get());

    // Distinct conjunctions, many more than the 256-slot per-thread
    // selectivity memo holds: cycling through them, a conjunction's slot has
    // been overwritten long before it comes round again, so every timed call
    // is a full inference rather than a memo hit.
    const int score = posts->FindColumnIndex("score");
    const int view_count = posts->FindColumnIndex("view_count");
    marginal_column = posts->FindColumnIndex("owner_user_id");
    for (int64_t s = 0; s < 64; ++s) {
      for (int64_t v = 0; v < 128; ++v) {
        minihouse::ColumnPredicate p1;
        p1.column = score;
        p1.op = minihouse::CompareOp::kLe;
        p1.operand = s;
        minihouse::ColumnPredicate p2;
        p2.column = view_count;
        p2.op = minihouse::CompareOp::kGe;
        p2.operand = 40 * v;
        queries.push_back({p1, p2});
      }
    }
    // Interleave so consecutive calls differ in both predicates.
    Rng rng(5);
    rng.Shuffle(&queries);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_FlatIndexedInference(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.context->EstimateSelectivity(f.queries[i++ % f.queries.size()]));
  }
}
BENCHMARK(BM_FlatIndexedInference);

void BM_TreeWalkInference(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.context->EstimateSelectivityTreeWalk(
        f.queries[i++ % f.queries.size()]));
  }
}
BENCHMARK(BM_TreeWalkInference);

void BM_MarginalWithEvidence(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.context->MarginalWithEvidence(
        f.queries[i++ % f.queries.size()], f.marginal_column));
  }
}
BENCHMARK(BM_MarginalWithEvidence);

void BM_InitContext(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    cardest::BnInferenceContext context(f.model.get());
    benchmark::DoNotOptimize(context.root());
  }
}
BENCHMARK(BM_InitContext);

}  // namespace
}  // namespace bytecard::bench

BENCHMARK_MAIN();

// Shared helpers for tests: a deterministic toy catalog with known contents.

#ifndef BYTECARD_TESTS_TEST_UTIL_H_
#define BYTECARD_TESTS_TEST_UTIL_H_

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cardest/request.h"
#include "common/logging.h"
#include "common/rng.h"
#include "minihouse/database.h"
#include "minihouse/query.h"

namespace bytecard::testutil {

// Builds a small two-table star:
//   dim(id 0..99, category = id % 5, flag = id < 20 ? 1 : 0)
//   fact(dim_id zipf-ish over 0..99, value = row % 50, bucket = value / 10)
// with `fact_rows` fact rows. Deterministic for a given seed.
inline std::unique_ptr<minihouse::Database> BuildToyDatabase(
    int64_t fact_rows = 2000, uint64_t seed = 71) {
  using minihouse::DataType;
  auto db = std::make_unique<minihouse::Database>();

  {
    minihouse::TableSchema schema({{"id", DataType::kInt64},
                                   {"category", DataType::kInt64},
                                   {"flag", DataType::kInt64}});
    auto dim = std::make_unique<minihouse::Table>("dim", schema);
    for (int64_t i = 0; i < 100; ++i) {
      dim->mutable_column(0)->AppendInt(i);
      dim->mutable_column(1)->AppendInt(i % 5);
      dim->mutable_column(2)->AppendInt(i < 20 ? 1 : 0);
    }
    BC_CHECK_OK(dim->Seal());
    BC_CHECK_OK(db->AddTable(std::move(dim)));
  }
  {
    minihouse::TableSchema schema({{"dim_id", DataType::kInt64},
                                   {"value", DataType::kInt64},
                                   {"bucket", DataType::kInt64}});
    auto fact = std::make_unique<minihouse::Table>("fact", schema);
    Rng rng(seed);
    ZipfDistribution zipf(100, 0.9);
    for (int64_t i = 0; i < fact_rows; ++i) {
      fact->mutable_column(0)->AppendInt(
          static_cast<int64_t>(zipf.Sample(&rng)));
      const int64_t value = i % 50;
      fact->mutable_column(1)->AppendInt(value);
      fact->mutable_column(2)->AppendInt(value / 10);
    }
    BC_CHECK_OK(fact->Seal());
    BC_CHECK_OK(db->AddTable(std::move(fact)));
  }
  return db;
}

// fact JOIN dim ON fact.dim_id = dim.id, with optional filters installed by
// the caller. Table 0 = fact, table 1 = dim.
inline minihouse::BoundQuery ToyJoinQuery(const minihouse::Database& db) {
  minihouse::BoundQuery query;
  minihouse::BoundTableRef fact;
  fact.table = db.FindTable("fact").value();
  fact.alias = "fact";
  minihouse::BoundTableRef dim;
  dim.table = db.FindTable("dim").value();
  dim.alias = "dim";
  query.tables = {fact, dim};
  query.joins = {{0, 0, 1, 0}};  // fact.dim_id = dim.id
  query.aggs = {{minihouse::AggFunc::kCountStar, -1, -1}};
  return query;
}

// A fresh, empty directory private to this test process:
// <tmp>/bytecard_<name>_XXXXXX created with mkdtemp, so concurrent test
// processes (ctest -j) never share model stores. The caller removes it.
inline std::string MakeTempDir(const std::string& name) {
  std::string pattern =
      (std::filesystem::temp_directory_path() / ("bytecard_" + name + "_XXXXXX"))
          .string();
  BC_CHECK(::mkdtemp(pattern.data()) != nullptr)
      << "mkdtemp failed for " << pattern;
  return pattern;
}

// Estimate() for scripted test estimators: routes each request shape to the
// stub's Selectivity / JoinCardinality / GroupNdv methods; disjunctions go
// through inclusion-exclusion over Selectivity and column NDV answers the
// neutral 1.
template <typename Stub>
double AnswerWithStub(Stub* stub, const cardest::CardEstRequest& request,
                      cardest::InferenceSession* session) {
  using cardest::CardEstTarget;
  switch (request.target) {
    case CardEstTarget::kSelectivity:
      return stub->Selectivity(*request.table, *request.filters);
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      return stub->JoinCardinality(*request.query,
                                   request.ResolveTables(session, &scratch));
    }
    case CardEstTarget::kGroupNdv:
      return stub->GroupNdv(*request.query);
    case CardEstTarget::kDisjunction:
      return cardest::DisjunctionCount(
          *request.table, *request.disjuncts,
          [&](const minihouse::Conjunction& c) {
            return stub->Selectivity(*request.table, c);
          });
    case CardEstTarget::kColumnNdv:
      break;
  }
  return 1.0;
}

}  // namespace bytecard::testutil

#endif  // BYTECARD_TESTS_TEST_UTIL_H_

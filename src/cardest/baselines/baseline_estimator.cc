#include "cardest/baselines/baseline_estimator.h"

#include <algorithm>

namespace bytecard::cardest {

namespace {

// OR-query COUNT by inclusion-exclusion over the estimator's own selectivity
// answer, so the baselines answer disjunctions through the same canonical
// request shape as ByteCard.
double SelfDisjunctionCount(minihouse::CardinalityEstimator* est,
                            const CardEstRequest& request,
                            InferenceSession* session) {
  return DisjunctionCount(
      *request.table, *request.disjuncts,
      [est, &request, session](const minihouse::Conjunction& c) {
        return est->Estimate(CardEstRequest::Selectivity(*request.table, c),
                             session);
      });
}

// A single-table query over `table` with `filters`, for models whose only
// native entry point is a whole-query COUNT.
minihouse::BoundQuery SingleTableQuery(const minihouse::Table& table,
                                       const minihouse::Conjunction& filters) {
  minihouse::BoundQuery query;
  minihouse::BoundTableRef ref;
  ref.table = &table;
  ref.alias = table.name();
  ref.filters = filters;
  query.tables.push_back(std::move(ref));
  return query;
}

}  // namespace

minihouse::BoundQuery SubQueryOf(const minihouse::BoundQuery& query,
                                 const std::vector<int>& subset) {
  minihouse::BoundQuery sub;
  std::vector<int> remap(query.tables.size(), -1);
  for (int t : subset) {
    remap[t] = static_cast<int>(sub.tables.size());
    sub.tables.push_back(query.tables[t]);
  }
  for (const minihouse::JoinEdge& e : query.joins) {
    if (remap[e.left_table] < 0 || remap[e.right_table] < 0) continue;
    minihouse::JoinEdge mapped = e;
    mapped.left_table = remap[e.left_table];
    mapped.right_table = remap[e.right_table];
    sub.joins.push_back(mapped);
  }
  return sub;
}

// ---------------------------------------------------------------------------
// MscnEstimator
// ---------------------------------------------------------------------------

double MscnEstimator::Estimate(const CardEstRequest& request,
                               InferenceSession* session) {
  switch (request.target) {
    case CardEstTarget::kSelectivity: {
      const double rows = static_cast<double>(request.table->num_rows());
      if (rows <= 0.0) return 0.0;
      const double count = model_->EstimateCount(
          SingleTableQuery(*request.table, *request.filters));
      return std::clamp(count / rows, 0.0, 1.0);
    }
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      return model_->EstimateCount(
          SubQueryOf(*request.query, request.ResolveTables(session, &scratch)));
    }
    case CardEstTarget::kDisjunction:
      return SelfDisjunctionCount(this, request, session);
    case CardEstTarget::kGroupNdv:
    case CardEstTarget::kColumnNdv:
      return 1.0;  // COUNT-only model family
  }
  return 1.0;
}

// ---------------------------------------------------------------------------
// SpnEstimator
// ---------------------------------------------------------------------------

namespace {

// Re-address the filters of `query`'s tables onto the denormalized column
// space ("alias_column", same convention as BuildDenormalizedSample).
// Predicates on columns absent from the denorm schema are dropped.
minihouse::Conjunction DenormFilters(const minihouse::BoundQuery& query,
                                     const minihouse::Table& denorm) {
  minihouse::Conjunction filters;
  for (const minihouse::BoundTableRef& ref : query.tables) {
    const std::string alias =
        ref.alias.empty() ? ref.table->name() : ref.alias;
    for (const minihouse::ColumnPredicate& pred : ref.filters) {
      const std::string denorm_name =
          alias + "_" + ref.table->schema().column(pred.column).name;
      const int column = denorm.FindColumnIndex(denorm_name);
      if (column < 0) continue;
      minihouse::ColumnPredicate mapped = pred;
      mapped.column = column;
      mapped.column_name = denorm_name;
      filters.push_back(std::move(mapped));
    }
  }
  return filters;
}

}  // namespace

double SpnEstimator::Estimate(const CardEstRequest& request,
                              InferenceSession* session) {
  switch (request.target) {
    case CardEstTarget::kSelectivity:
      // P over the denormalized distribution stands in for the base-table
      // selectivity — the approximation the DeepDB design makes.
      return std::clamp(
          model_->EstimateSelectivity(DenormFilters(
              SingleTableQuery(*request.table, *request.filters), *denorm_)),
          0.0, 1.0);
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      const minihouse::BoundQuery sub =
          SubQueryOf(*request.query, request.ResolveTables(session, &scratch));
      // Subset population: the full-join population is the only size the
      // denormalized model knows; single-table subsets use the table itself.
      double population = population_estimate_;
      if (sub.tables.size() == 1) {
        population = static_cast<double>(sub.tables[0].table->num_rows());
      }
      return model_->EstimateSelectivity(DenormFilters(sub, *denorm_)) *
             population;
    }
    case CardEstTarget::kDisjunction:
      return SelfDisjunctionCount(this, request, session);
    case CardEstTarget::kGroupNdv:
    case CardEstTarget::kColumnNdv:
      return 1.0;  // COUNT-only model family
  }
  return 1.0;
}

// ---------------------------------------------------------------------------
// BayesCardEstimator
// ---------------------------------------------------------------------------

double BayesCardEstimator::Estimate(const CardEstRequest& request,
                                    InferenceSession* session) {
  switch (request.target) {
    case CardEstTarget::kSelectivity: {
      const double population = model_->population_estimate();
      if (population <= 0.0) return 1.0;
      const double count = model_->EstimateCount(
          SingleTableQuery(*request.table, *request.filters));
      return std::clamp(count / population, 0.0, 1.0);
    }
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      return model_->EstimateCount(
          SubQueryOf(*request.query, request.ResolveTables(session, &scratch)));
    }
    case CardEstTarget::kDisjunction:
      return SelfDisjunctionCount(this, request, session);
    case CardEstTarget::kGroupNdv:
    case CardEstTarget::kColumnNdv:
      return 1.0;  // COUNT-only model family
  }
  return 1.0;
}

}  // namespace bytecard::cardest

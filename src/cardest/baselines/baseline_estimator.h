#ifndef BYTECARD_CARDEST_BASELINES_BASELINE_ESTIMATOR_H_
#define BYTECARD_CARDEST_BASELINES_BASELINE_ESTIMATOR_H_

#include <string>
#include <vector>

#include "cardest/baselines/bayescard.h"
#include "cardest/baselines/mscn.h"
#include "cardest/baselines/spn.h"
#include "cardest/request.h"
#include "minihouse/optimizer.h"

namespace bytecard::cardest {

// CardinalityEstimator adapters over the Table 3 comparator models, so
// benchmark harnesses drive MSCN / SPN (DeepDB-style) / BayesCard through
// the same canonical CardEstRequest entry point as ByteCard itself. The
// adapters borrow their model (and, for SPN, the denormalized table):
// referents must outlive the adapter.
//
// Requests these model families cannot answer (column NDV, group NDV) get
// the neutral 1.0 — the comparators in the paper are COUNT estimators only.

// Query-driven baseline: every target reduces to a (sub-)query COUNT.
class MscnEstimator : public minihouse::CardinalityEstimator {
 public:
  explicit MscnEstimator(const MscnModel* model) : model_(model) {}

  std::string Name() const override { return "mscn"; }
  double Estimate(const CardEstRequest& request,
                  InferenceSession* session) override;

 private:
  const MscnModel* model_;
};

// DeepDB-style baseline: the SPN is trained over `denorm` (the sampled
// denormalized join); predicates are re-addressed onto its column space and
// join counts scale P(filters) by the full-join population estimate.
class SpnEstimator : public minihouse::CardinalityEstimator {
 public:
  SpnEstimator(const SpnModel* model, const minihouse::Table* denorm,
               double population_estimate)
      : model_(model), denorm_(denorm),
        population_estimate_(population_estimate) {}

  std::string Name() const override { return "spn"; }
  double Estimate(const CardEstRequest& request,
                  InferenceSession* session) override;

 private:
  const SpnModel* model_;
  const minihouse::Table* denorm_;
  double population_estimate_ = 0.0;
};

// BayesCard baseline: one BN over the denormalized join; selectivities are
// COUNT(sub-query) / population.
class BayesCardEstimator : public minihouse::CardinalityEstimator {
 public:
  explicit BayesCardEstimator(const BayesCardModel* model) : model_(model) {}

  std::string Name() const override { return "bayescard"; }
  double Estimate(const CardEstRequest& request,
                  InferenceSession* session) override;

 private:
  const BayesCardModel* model_;
};

// Shared helper: the sub-query induced by `subset` (tables remapped to
// [0, |subset|), join edges restricted to the subset and re-indexed).
minihouse::BoundQuery SubQueryOf(const minihouse::BoundQuery& query,
                                 const std::vector<int>& subset);

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_BASELINES_BASELINE_ESTIMATOR_H_

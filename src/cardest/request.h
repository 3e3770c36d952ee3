#ifndef BYTECARD_CARDEST_REQUEST_H_
#define BYTECARD_CARDEST_REQUEST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "minihouse/query.h"

namespace bytecard::cardest {

class InferenceSession;

// --- Canonical estimation-request IR -----------------------------------------
// Every estimation question the engine asks — scan selectivity, join-subset
// cardinality, GROUP BY output NDV, COUNT(DISTINCT col), OR-query counts —
// is one CardEstRequest: a target kind plus non-owning views into the bound
// query it is asked about (paper §4.2's uniform Featurize→Estimate contract,
// lifted from per-model to the whole serving path). The request carries the
// *one* canonical fingerprint implementation in the tree; the optimizer's
// per-query memos, the runtime feedback cache, and operator stamping all key
// on Fingerprint(), so the three layers can never disagree about "what
// subplan is this estimate for".
//
// Lifetime: a request borrows its query/table/filter referents from the
// caller. It is a call-scoped value — build it, hand it to
// CardinalityEstimator::Estimate / EstimatorSnapshot::Estimate, let it die.
// Never store one beyond the statements that created it.

enum class CardEstTarget {
  kSelectivity,  // fraction of `table`'s rows matching `filters`, in [0, 1]
  kJoinCount,    // COUNT(*) of the join of `table_set` under its filters
  kGroupNdv,     // distinct group keys of `query`'s GROUP BY output
  kColumnNdv,    // COUNT(DISTINCT ndv_column) on `table` under `filters`
  kDisjunction,  // COUNT(*) of the union of `disjuncts` on `table`
};

struct CardEstRequest {
  CardEstTarget target = CardEstTarget::kSelectivity;

  // Join-shaped targets (kJoinCount, kGroupNdv).
  const minihouse::BoundQuery* query = nullptr;
  // Tables the estimate covers (indices into query->tables). Null with
  // all_tables set means "every table of the query" — the fast path that
  // avoids materializing an iota vector per EstimateCount call.
  const std::vector<int>* table_set = nullptr;
  bool all_tables = false;

  // Table-shaped targets (kSelectivity, kColumnNdv, kDisjunction).
  const minihouse::Table* table = nullptr;
  const minihouse::Conjunction* filters = nullptr;
  int ndv_column = -1;
  const std::vector<minihouse::Conjunction>* disjuncts = nullptr;

  // --- Factories (the only supported way to build a request) ----------------
  static CardEstRequest Selectivity(const minihouse::Table& table,
                                    const minihouse::Conjunction& filters);
  static CardEstRequest JoinCount(const minihouse::BoundQuery& query,
                                  const std::vector<int>& table_set);
  // Whole-query COUNT(*): kJoinCount over every table, without allocating
  // the all-tables vector (resolved lazily via ResolveTables).
  static CardEstRequest Count(const minihouse::BoundQuery& query);
  static CardEstRequest GroupNdv(const minihouse::BoundQuery& query);
  static CardEstRequest ColumnNdv(const minihouse::Table& table, int column,
                                  const minihouse::Conjunction& filters);
  static CardEstRequest Disjunction(
      const minihouse::Table& table,
      const std::vector<minihouse::Conjunction>& disjuncts);

  // The concrete table set of a join-shaped request. All-tables requests
  // resolve through the session's cached iota when one is given; otherwise
  // `scratch` is filled and referenced. `scratch` must outlive the returned
  // reference.
  const std::vector<int>& ResolveTables(InferenceSession* session,
                                        std::vector<int>* scratch) const;

  // The canonical cross-query identity of this request (see the token
  // grammar below). `session` is optional and only memoizes per-table token
  // construction — the returned string is byte-identical with or without it.
  std::string Fingerprint(InferenceSession* session = nullptr) const;
};

// The answer when no estimator state exists (no published snapshot): a
// disjunction count degrades to 0 rows, every other target to the
// multiplicative identity 1.
inline double NeutralEstimate(CardEstTarget target) {
  return target == CardEstTarget::kDisjunction ? 0.0 : 1.0;
}

// COUNT(*) of the union of `disjuncts` on `table` (paper §5.1.2) by
// inclusion-exclusion: every non-empty subset of disjuncts is merged into one
// conjunction and priced with `selectivity`, and the signed sum is clamped to
// [0, 1] before scaling by the row count. An empty list answers 0. Past 16
// disjuncts the 2^n subsets are not enumerated; the union bound
// clamp(sum_i sel_i, max_i sel_i, 1) x rows answers instead.
double DisjunctionCount(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts,
    const std::function<double(const minihouse::Conjunction&)>& selectivity);

// --- Canonical fingerprint tokens --------------------------------------------
// The token grammar (stable across queries; the feedback cache persists these
// strings between queries):
//   predicate   "col:op:operand:operand2[:v1,v2,...]"  (IN-list suffix only
//                when present), order-independent of its siblings
//   table       "name{p1&p2&...}" with predicate tokens sorted
//   join        "J[t1,t2,...;e1,e2,...]" with table tokens sorted and each
//                edge normalized so its lexicographically smaller endpoint
//                comes first (enumeration-order- and direction-independent);
//                a one-element subset reduces to the bare table token so scan
//                and selectivity questions share keys. Self-join refs whose
//                content tokens collide are suffixed "#<query-table-index>"
//                so distinct join prefixes keep distinct keys
//   group NDV   "G[<join-of-all-tables>;tbl.col;...]" group keys sorted
//   column NDV  "V[<table>;col]"
//   disjunction "O[name;{d1}|{d2}|...]" with each disjunct's predicate tokens
//                sorted and the disjunct bodies sorted
std::string PredicateToken(const minihouse::ColumnPredicate& pred);
std::string TableKey(const minihouse::Table& table,
                     const minihouse::Conjunction& filters);
std::string SubplanKey(const minihouse::BoundQuery& query,
                       const std::vector<int>& subset,
                       InferenceSession* session = nullptr);
std::string GroupNdvKey(const minihouse::BoundQuery& query,
                        InferenceSession* session = nullptr);

// --- Per-query inference session ---------------------------------------------
// Scratch state for one query's estimation work. The optimizer's join-order
// search probes the estimator once per candidate subset, and every probe
// re-derives the same per-table ingredients: BN selectivities, FactorJoin
// filtered-bucket-count vectors, canonical table tokens. The session memoizes
// those ingredients so each is computed once per query instead of once per
// subset probe.
//
// Lifetime rules: one session per query, created by EstimationContext (or a
// bench/test harness) and destroyed with it; it must never outlive the
// snapshot whose probes it caches, and must never be shared across queries or
// threads (concurrent queries each bring their own — the snapshot itself
// stays lock-free and shared). Passing null everywhere a session is accepted
// is always valid and changes no estimate, only the work done to produce it.
class InferenceSession {
 public:
  struct Stats {
    int64_t probe_cache_hits = 0;    // scalar + bucket-vector memo hits
    int64_t probe_cache_misses = 0;  // first-time probes (stored)
  };

  InferenceSession() = default;
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  // Scalar probe memo (BN selectivities, fallback selectivities).
  // `was_fallback` round-trips with the value so callers can replay
  // fallback accounting on hits — counters stay byte-identical to the
  // memoization-free path.
  bool LookupScalar(const std::string& key, double* value,
                    bool* was_fallback);
  void StoreScalar(const std::string& key, double value, bool was_fallback);

  // FactorJoin filtered-bucket-count memo. Returns null on a miss; the
  // pointer stays valid until the session dies (values are never evicted).
  const std::vector<double>* LookupBuckets(const std::string& key,
                                           double* total_out);
  void StoreBuckets(const std::string& key, std::vector<double> counts,
                    double total);

  // Cached iota [0, n) for all-tables requests (grown on demand).
  const std::vector<int>& AllTables(int n);

  // Canonical table token of query.tables[table_idx], memoized — subplan
  // fingerprints during join ordering re-tokenize the same tables for every
  // candidate subset.
  const std::string& TableToken(const minihouse::BoundQuery& query,
                                int table_idx);

  // Operand-free twin of TableToken: the table's *shape* (route_class.h).
  // Route resolution runs on every estimate when a routing table is live, so
  // the per-table shape is memoized exactly like the fingerprint token.
  const std::string& TableShapeToken(const minihouse::BoundQuery& query,
                                     int table_idx);

  const Stats& stats() const { return stats_; }

 private:
  struct ScalarEntry {
    double value = 0.0;
    bool was_fallback = false;
  };
  struct BucketEntry {
    std::vector<double> counts;
    double total = 0.0;
  };

  std::unordered_map<std::string, ScalarEntry> scalars_;
  std::unordered_map<std::string, BucketEntry> buckets_;
  std::vector<int> all_tables_;
  // Keyed by (query identity, table index): sessions are per-query, but the
  // cheap guard keeps a stray cross-query reuse from serving stale tokens.
  std::map<std::pair<const void*, int>, std::string> table_tokens_;
  std::map<std::pair<const void*, int>, std::string> table_shapes_;
  Stats stats_;
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_REQUEST_H_

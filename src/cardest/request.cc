#include "cardest/request.h"

#include <algorithm>
#include <numeric>

#include "cardest/route_class.h"

namespace bytecard::cardest {

// ---------------------------------------------------------------------------
// Canonical tokens
// ---------------------------------------------------------------------------

std::string PredicateToken(const minihouse::ColumnPredicate& pred) {
  std::string token = std::to_string(pred.column) + ":" +
                      std::to_string(static_cast<int>(pred.op)) + ":" +
                      std::to_string(pred.operand) + ":" +
                      std::to_string(pred.operand2);
  if (!pred.in_list.empty()) {
    token += ":";
    for (size_t i = 0; i < pred.in_list.size(); ++i) {
      if (i > 0) token += ",";
      token += std::to_string(pred.in_list[i]);
    }
  }
  return token;
}

std::string TableKey(const minihouse::Table& table,
                     const minihouse::Conjunction& filters) {
  std::vector<std::string> parts;
  parts.reserve(filters.size());
  for (const minihouse::ColumnPredicate& pred : filters) {
    parts.push_back(PredicateToken(pred));
  }
  std::sort(parts.begin(), parts.end());
  std::string key = table.name();
  key += "{";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) key += "&";
    key += parts[i];
  }
  key += "}";
  return key;
}

namespace {

// Table token via the session memo when one is given.
const std::string* TokenOf(const minihouse::BoundQuery& query, int table_idx,
                           InferenceSession* session, std::string* storage) {
  if (session != nullptr) return &session->TableToken(query, table_idx);
  const minihouse::BoundTableRef& ref = query.tables[table_idx];
  *storage = TableKey(*ref.table, ref.filters);
  return storage;
}

}  // namespace

std::string SubplanKey(const minihouse::BoundQuery& query,
                       const std::vector<int>& subset,
                       InferenceSession* session) {
  if (subset.size() == 1) {
    std::string storage;
    return *TokenOf(query, subset[0], session, &storage);
  }

  // Self-join disambiguation: when the query references the same
  // (table, filters) twice, the content tokens collide and different join
  // prefixes (say {fact, dim} vs {dim, fact2}) would share a key. Suffix
  // duplicated tokens with their query-table index — queries without
  // duplicate refs (the common case) keep the plain content token, so their
  // fingerprints stay comparable across queries.
  const int num_tables = query.num_tables();
  std::vector<std::string> all_tokens(num_tables);
  std::map<std::string, int> token_counts;
  for (int t = 0; t < num_tables; ++t) {
    std::string storage;
    all_tokens[t] = *TokenOf(query, t, session, &storage);
    ++token_counts[all_tokens[t]];
  }

  std::vector<std::string> table_tokens;  // indexed by position in `subset`
  table_tokens.reserve(subset.size());
  for (int t : subset) {
    std::string token = all_tokens[t];
    if (token_counts[token] > 1) token += "#" + std::to_string(t);
    table_tokens.push_back(std::move(token));
  }

  // Map query-table index -> its canonical token, for edge normalization.
  auto token_of = [&](int query_table) -> const std::string* {
    for (size_t i = 0; i < subset.size(); ++i) {
      if (subset[i] == query_table) return &table_tokens[i];
    }
    return nullptr;
  };

  std::vector<std::string> edge_tokens;
  for (const minihouse::JoinEdge& e : query.joins) {
    const std::string* lt = token_of(e.left_table);
    const std::string* rt = token_of(e.right_table);
    if (lt == nullptr || rt == nullptr) continue;  // edge leaves the subset
    std::string a = *lt + "." + std::to_string(e.left_column);
    std::string b = *rt + "." + std::to_string(e.right_column);
    if (b < a) std::swap(a, b);  // direction-independent
    edge_tokens.push_back(a + "=" + b);
  }

  std::sort(table_tokens.begin(), table_tokens.end());
  std::sort(edge_tokens.begin(), edge_tokens.end());
  std::string key = "J[";
  for (size_t i = 0; i < table_tokens.size(); ++i) {
    if (i > 0) key += ",";
    key += table_tokens[i];
  }
  key += ";";
  for (size_t i = 0; i < edge_tokens.size(); ++i) {
    if (i > 0) key += ",";
    key += edge_tokens[i];
  }
  key += "]";
  return key;
}

std::string GroupNdvKey(const minihouse::BoundQuery& query,
                        InferenceSession* session) {
  std::vector<int> scratch;
  const std::vector<int>* all;
  if (session != nullptr) {
    all = &session->AllTables(query.num_tables());
  } else {
    scratch.resize(query.tables.size());
    std::iota(scratch.begin(), scratch.end(), 0);
    all = &scratch;
  }
  std::string key = "G[";
  key += SubplanKey(query, *all, session);
  std::vector<std::string> group_tokens;
  group_tokens.reserve(query.group_by.size());
  for (const minihouse::GroupKeyRef& g : query.group_by) {
    group_tokens.push_back(query.tables[g.table].table->name() + "." +
                           std::to_string(g.column));
  }
  std::sort(group_tokens.begin(), group_tokens.end());
  for (const std::string& tok : group_tokens) {
    key += ";";
    key += tok;
  }
  key += "]";
  return key;
}

// ---------------------------------------------------------------------------
// CardEstRequest
// ---------------------------------------------------------------------------

CardEstRequest CardEstRequest::Selectivity(
    const minihouse::Table& table, const minihouse::Conjunction& filters) {
  CardEstRequest req;
  req.target = CardEstTarget::kSelectivity;
  req.table = &table;
  req.filters = &filters;
  return req;
}

CardEstRequest CardEstRequest::JoinCount(const minihouse::BoundQuery& query,
                                         const std::vector<int>& table_set) {
  CardEstRequest req;
  req.target = CardEstTarget::kJoinCount;
  req.query = &query;
  req.table_set = &table_set;
  return req;
}

CardEstRequest CardEstRequest::Count(const minihouse::BoundQuery& query) {
  CardEstRequest req;
  req.target = CardEstTarget::kJoinCount;
  req.query = &query;
  req.all_tables = true;
  return req;
}

CardEstRequest CardEstRequest::GroupNdv(const minihouse::BoundQuery& query) {
  CardEstRequest req;
  req.target = CardEstTarget::kGroupNdv;
  req.query = &query;
  req.all_tables = true;
  return req;
}

CardEstRequest CardEstRequest::ColumnNdv(
    const minihouse::Table& table, int column,
    const minihouse::Conjunction& filters) {
  CardEstRequest req;
  req.target = CardEstTarget::kColumnNdv;
  req.table = &table;
  req.ndv_column = column;
  req.filters = &filters;
  return req;
}

CardEstRequest CardEstRequest::Disjunction(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts) {
  CardEstRequest req;
  req.target = CardEstTarget::kDisjunction;
  req.table = &table;
  req.disjuncts = &disjuncts;
  return req;
}

const std::vector<int>& CardEstRequest::ResolveTables(
    InferenceSession* session, std::vector<int>* scratch) const {
  if (table_set != nullptr) return *table_set;
  const int n = query == nullptr ? 0 : query->num_tables();
  if (session != nullptr) return session->AllTables(n);
  scratch->resize(n);
  std::iota(scratch->begin(), scratch->end(), 0);
  return *scratch;
}

std::string CardEstRequest::Fingerprint(InferenceSession* session) const {
  switch (target) {
    case CardEstTarget::kSelectivity:
      return TableKey(*table, *filters);
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      return SubplanKey(*query, ResolveTables(session, &scratch), session);
    }
    case CardEstTarget::kGroupNdv:
      return GroupNdvKey(*query, session);
    case CardEstTarget::kColumnNdv:
      return "V[" + TableKey(*table, *filters) + ";" +
             std::to_string(ndv_column) + "]";
    case CardEstTarget::kDisjunction: {
      // Each disjunct canonicalized like a table key body; bodies sorted so
      // the fingerprint is independent of disjunct order.
      std::vector<std::string> bodies;
      bodies.reserve(disjuncts->size());
      for (const minihouse::Conjunction& d : *disjuncts) {
        std::vector<std::string> parts;
        parts.reserve(d.size());
        for (const minihouse::ColumnPredicate& pred : d) {
          parts.push_back(PredicateToken(pred));
        }
        std::sort(parts.begin(), parts.end());
        std::string body = "{";
        for (size_t i = 0; i < parts.size(); ++i) {
          if (i > 0) body += "&";
          body += parts[i];
        }
        body += "}";
        bodies.push_back(std::move(body));
      }
      std::sort(bodies.begin(), bodies.end());
      std::string key = "O[" + table->name() + ";";
      for (size_t i = 0; i < bodies.size(); ++i) {
        if (i > 0) key += "|";
        key += bodies[i];
      }
      key += "]";
      return key;
    }
  }
  return std::string();
}

double DisjunctionCount(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts,
    const std::function<double(const minihouse::Conjunction&)>& selectivity) {
  const int n = static_cast<int>(disjuncts.size());
  if (n == 0) return 0.0;
  double result = 0.0;
  if (n > 16) {
    double sum = 0.0;
    double max_sel = 0.0;
    for (const minihouse::Conjunction& d : disjuncts) {
      const double sel = selectivity(d);
      sum += sel;
      max_sel = std::max(max_sel, sel);
    }
    result = std::clamp(std::max(sum, max_sel), 0.0, 1.0);
  } else {
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      minihouse::Conjunction merged;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          merged.insert(merged.end(), disjuncts[i].begin(),
                        disjuncts[i].end());
        }
      }
      const double term = selectivity(merged);
      result += (__builtin_popcount(mask) % 2 == 1) ? term : -term;
    }
    result = std::clamp(result, 0.0, 1.0);
  }
  return result * static_cast<double>(table.num_rows());
}

// ---------------------------------------------------------------------------
// InferenceSession
// ---------------------------------------------------------------------------

bool InferenceSession::LookupScalar(const std::string& key, double* value,
                                    bool* was_fallback) {
  auto it = scalars_.find(key);
  if (it == scalars_.end()) return false;
  ++stats_.probe_cache_hits;
  *value = it->second.value;
  *was_fallback = it->second.was_fallback;
  return true;
}

void InferenceSession::StoreScalar(const std::string& key, double value,
                                   bool was_fallback) {
  ++stats_.probe_cache_misses;
  scalars_[key] = ScalarEntry{value, was_fallback};
}

const std::vector<double>* InferenceSession::LookupBuckets(
    const std::string& key, double* total_out) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return nullptr;
  ++stats_.probe_cache_hits;
  *total_out = it->second.total;
  return &it->second.counts;
}

void InferenceSession::StoreBuckets(const std::string& key,
                                    std::vector<double> counts, double total) {
  ++stats_.probe_cache_misses;
  buckets_[key] = BucketEntry{std::move(counts), total};
}

const std::vector<int>& InferenceSession::AllTables(int n) {
  if (static_cast<int>(all_tables_.size()) < n) {
    const int old = static_cast<int>(all_tables_.size());
    all_tables_.resize(n);
    std::iota(all_tables_.begin() + old, all_tables_.end(), old);
  } else if (static_cast<int>(all_tables_.size()) > n) {
    all_tables_.resize(n);
  }
  return all_tables_;
}

const std::string& InferenceSession::TableToken(
    const minihouse::BoundQuery& query, int table_idx) {
  const auto key = std::make_pair(static_cast<const void*>(&query), table_idx);
  auto it = table_tokens_.find(key);
  if (it != table_tokens_.end()) return it->second;
  const minihouse::BoundTableRef& ref = query.tables[table_idx];
  return table_tokens_
      .emplace(key, TableKey(*ref.table, ref.filters))
      .first->second;
}

const std::string& InferenceSession::TableShapeToken(
    const minihouse::BoundQuery& query, int table_idx) {
  const auto key = std::make_pair(static_cast<const void*>(&query), table_idx);
  auto it = table_shapes_.find(key);
  if (it != table_shapes_.end()) return it->second;
  const minihouse::BoundTableRef& ref = query.tables[table_idx];
  return table_shapes_
      .emplace(key, TableShape(*ref.table, ref.filters))
      .first->second;
}

}  // namespace bytecard::cardest

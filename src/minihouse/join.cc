#include "minihouse/join.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace bytecard::minihouse {

namespace {

bool KeysEqual(const Relation& a, const std::vector<int>& a_keys, int64_t ra,
               const Relation& b, const std::vector<int>& b_keys,
               int64_t rb) {
  for (size_t i = 0; i < a_keys.size(); ++i) {
    if (a.columns[a_keys[i]][ra] != b.columns[b_keys[i]][rb]) return false;
  }
  return true;
}

// Copies the joined slots `slots` (indices into left's columns followed by
// right's) of every matched row pair, in slot-list order. Names and ids ride
// along when both inputs carry one per column.
Relation GatherJoined(const Relation& left, const Relation& right,
                      const std::vector<int64_t>& left_rows,
                      const std::vector<int64_t>& right_rows,
                      const std::vector<int>& slots) {
  const int left_width = left.num_columns();
  auto named = [](const Relation& rel) {
    return rel.column_names.size() == rel.columns.size();
  };
  const bool names = named(left) && named(right);
  const bool ids = left.has_ids() && right.has_ids();
  Relation out;
  const size_t n = left_rows.size();
  out.rows = static_cast<int64_t>(n);
  out.columns.resize(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const bool from_left = slots[i] < left_width;
    const Relation& in = from_left ? left : right;
    const int c = from_left ? slots[i] : slots[i] - left_width;
    const std::vector<int64_t>& rows = from_left ? left_rows : right_rows;
    if (names) out.column_names.push_back(in.column_names[c]);
    if (ids) out.column_ids.push_back(in.column_ids[c]);
    const auto& src = in.columns[c];
    auto& dst = out.columns[i];
    dst.resize(n);
    for (size_t r = 0; r < n; ++r) dst[r] = src[rows[r]];
  }
  return out;
}

// Matches for one contiguous range of probe rows. A count-only probe only
// counts them and leaves the row lists empty.
struct ProbePart {
  explicit ProbePart(bool count) : count_only(count) {}

  bool count_only;
  int64_t matches = 0;
  std::vector<int64_t> build_rows;
  std::vector<int64_t> probe_rows;

  void Emit(int64_t build_row, int64_t probe_row) {
    ++matches;
    if (count_only) return;
    build_rows.push_back(build_row);
    probe_rows.push_back(probe_row);
  }
};

void ProbeRange(const JoinHashTable& ht, const Relation& build,
                const std::vector<int>& build_keys, const Relation& probe,
                const std::vector<int>& probe_keys, int64_t row_begin,
                int64_t row_end, ProbePart* part) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const uint64_t h = JoinHashTable::HashRowKeys(probe, probe_keys, r);
    ht.ForEachMatch(h, [&](int64_t build_row) {
      if (KeysEqual(build, build_keys, build_row, probe, probe_keys, r)) {
        part->Emit(build_row, r);
      }
    });
  }
}

// Array-index join structure (DESIGN.md §11): a direct key -> build-row-chain
// map over the build key's assumed domain. Probing is a subtract, a bounds
// check, and a chain walk — no hashing and no key re-verification (the index
// is exact on the single key). Chains are prepended in descending build-row
// order, so walks emit ascending build rows, matching JoinHashTable's match
// order exactly.
struct ArrayJoinIndex {
  int64_t domain_min = 0;
  std::vector<int64_t> heads;  // key - domain_min -> first build row, -1 = none
  std::vector<int64_t> next;   // per-build-row chain link, -1 = end

  // Builds over `keys`; false when some build key escapes [domain_min,
  // domain_max] — the runtime guard: the caller degrades to the hash join.
  bool Build(const std::vector<int64_t>& keys, int64_t dmin, int64_t dmax) {
    domain_min = dmin;
    const uint64_t width = static_cast<uint64_t>(dmax) -
                           static_cast<uint64_t>(dmin) + 1;
    heads.assign(width, -1);
    const int64_t n = static_cast<int64_t>(keys.size());
    next.assign(n, -1);
    for (int64_t r = n - 1; r >= 0; --r) {
      const uint64_t idx = static_cast<uint64_t>(keys[r]) -
                           static_cast<uint64_t>(domain_min);
      if (idx >= width) return false;
      next[r] = heads[idx];
      heads[idx] = r;
    }
    return true;
  }
};

void ArrayProbeRange(const ArrayJoinIndex& index, const Relation& probe,
                     int probe_key, int64_t row_begin, int64_t row_end,
                     ProbePart* part) {
  const std::vector<int64_t>& keys = probe.columns[probe_key];
  const uint64_t width = index.heads.size();
  for (int64_t r = row_begin; r < row_end; ++r) {
    const uint64_t idx = static_cast<uint64_t>(keys[r]) -
                         static_cast<uint64_t>(index.domain_min);
    // An out-of-domain probe key is an ordinary miss (it cannot equal any
    // in-domain build key), not a guard violation.
    if (idx >= width) continue;
    for (int64_t b = index.heads[idx]; b >= 0; b = index.next[b]) {
      part->Emit(b, r);
    }
  }
}

}  // namespace

uint64_t JoinHashTable::HashRowKeys(const Relation& rel,
                                    const std::vector<int>& keys,
                                    int64_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int k : keys) {
    uint64_t x = static_cast<uint64_t>(rel.columns[k][row]);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= (x ^ (x >> 31)) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

JoinHashTable::JoinHashTable(const Relation& build,
                             const std::vector<int>& keys) {
  const int64_t n = build.num_rows();
  next_.assign(n, -1);
  size_t slot_count = 16;
  while (slot_count < static_cast<size_t>(2 * n)) slot_count <<= 1;
  slots_.assign(slot_count, -1);
  slot_hashes_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  // Insert in descending row order with chain prepend: chains come out
  // ascending, so ForEachMatch visits build rows in row order.
  for (int64_t r = n - 1; r >= 0; --r) {
    const uint64_t h = HashRowKeys(build, keys, r);
    size_t s = static_cast<size_t>(h) & mask;
    while (slots_[s] >= 0 && slot_hashes_[s] != h) s = (s + 1) & mask;
    if (slots_[s] < 0) slot_hashes_[s] = h;
    next_[r] = slots_[s];
    slots_[s] = r;
  }
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::vector<int>& left_keys,
                          const std::vector<int>& right_keys, int dop,
                          JoinRunInfo* info,
                          const common::MorselPolicy& policy,
                          const ArrayJoinSpec& spec,
                          const std::optional<std::vector<int>>& keep_slots) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  for (int k : left_keys) {
    if (k < 0 || k >= static_cast<int>(left.columns.size())) {
      return Status::InvalidArgument("left join key out of range");
    }
  }
  for (int k : right_keys) {
    if (k < 0 || k >= static_cast<int>(right.columns.size())) {
      return Status::InvalidArgument("right join key out of range");
    }
  }
  const int joined_width = left.num_columns() + right.num_columns();
  std::vector<int> slots;
  if (keep_slots.has_value()) {
    slots = *keep_slots;
    for (int s : slots) {
      if (s < 0 || s >= joined_width) {
        return Status::InvalidArgument("join output slot out of range");
      }
    }
  } else {
    slots.resize(joined_width);
    std::iota(slots.begin(), slots.end(), 0);
  }
  const bool count_only = slots.empty();

  // Build on the smaller input; the build is serial regardless of dop (build
  // sides are small by choice, and a serial build keeps the table identical
  // across dops).
  const bool build_left = left.num_rows() <= right.num_rows();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const std::vector<int>& build_keys = build_left ? left_keys : right_keys;
  const std::vector<int>& probe_keys = build_left ? right_keys : left_keys;

  // Kernel specialization: a direct array index over the build key's assumed
  // domain, when the compiler requested it and the side that builds has a
  // usable domain within budget. The build pass is the runtime guard — one
  // key outside the assumed domain (stale stats) degrades the whole operator
  // to the generic hash join before any probing happens.
  ArrayJoinIndex array_index;
  bool use_array = false;
  bool despecialized = false;
  if (spec.enabled && build_keys.size() == 1) {
    const int64_t dmin = build_left ? spec.left_min : spec.right_min;
    const int64_t dmax = build_left ? spec.left_max : spec.right_max;
    if (dmax >= dmin) {
      const uint64_t width = static_cast<uint64_t>(dmax) -
                             static_cast<uint64_t>(dmin) + 1;
      if (width <= static_cast<uint64_t>(std::max<int64_t>(spec.budget, 0))) {
        use_array =
            array_index.Build(build.columns[build_keys[0]], dmin, dmax);
        despecialized = !use_array;
      }
    }
  }
  std::unique_ptr<JoinHashTable> ht;
  if (!use_array) ht = std::make_unique<JoinHashTable>(build, build_keys);

  auto probe_range = [&](int64_t r0, int64_t r1, ProbePart* part) {
    if (use_array) {
      ArrayProbeRange(array_index, probe, probe_keys[0], r0, r1, part);
    } else {
      ProbeRange(*ht, build, build_keys, probe, probe_keys, r0, r1, part);
    }
  };

  const int64_t probe_rows_total = probe.num_rows();
  dop = static_cast<int>(
      std::clamp<int64_t>(dop, 1, std::max<int64_t>(probe_rows_total, 1)));

  int64_t matches = 0;
  std::vector<int64_t> build_rows;
  std::vector<int64_t> probe_rows;
  if (dop <= 1) {
    ProbePart part(count_only);
    probe_range(0, probe_rows_total, &part);
    matches = part.matches;
    build_rows = std::move(part.build_rows);
    probe_rows = std::move(part.probe_rows);
    if (info != nullptr) {
      info->dop_used = 1;
      info->parallel_tasks = 0;
    }
  } else {
    // Partitioned parallel probe: exactly dop contiguous probe-row ranges,
    // match vectors concatenated in partition order — identical output to a
    // serial probe because matches within a probe row are already emitted in
    // ascending build-row order.
    std::vector<ProbePart> parts(dop, ProbePart(count_only));
    common::ParallelMorsels(common::ThreadPool::Global(), dop, dop, policy,
                            [&](int64_t p, int /*slot*/) {
      const int64_t r0 = probe_rows_total * p / dop;
      const int64_t r1 = probe_rows_total * (p + 1) / dop;
      probe_range(r0, r1, &parts[p]);
    });
    for (const ProbePart& part : parts) matches += part.matches;
    if (!count_only) {
      build_rows.reserve(matches);
      probe_rows.reserve(matches);
    }
    for (ProbePart& part : parts) {
      build_rows.insert(build_rows.end(), part.build_rows.begin(),
                        part.build_rows.end());
      probe_rows.insert(probe_rows.end(), part.probe_rows.begin(),
                        part.probe_rows.end());
    }
    if (info != nullptr) {
      info->dop_used = dop;
      info->parallel_tasks = dop;
    }
  }
  if (info != nullptr) {
    info->specialized = use_array;
    info->despecialized = despecialized;
  }

  if (count_only) {
    Relation out;
    out.rows = matches;
    return out;
  }
  if (build_left) {
    return GatherJoined(left, right, build_rows, probe_rows, slots);
  }
  return GatherJoined(left, right, probe_rows, build_rows, slots);
}

}  // namespace bytecard::minihouse

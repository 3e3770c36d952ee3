#include "cardest/bayes/bayes_net.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "cardest/bayes/chow_liu.h"
#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kBnFormatVersion = 1;
}  // namespace

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

Result<BayesNetModel> BayesNetModel::Train(const minihouse::Table& table,
                                           const BnTrainOptions& options) {
  BayesNetModel model;
  model.table_name_ = table.name();
  model.row_count_ = table.num_rows();

  // Column selection: explicit list, or every model-supported column.
  std::vector<int> columns = options.columns;
  if (columns.empty()) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (table.schema().column(c).type != minihouse::DataType::kArray) {
        columns.push_back(c);
      }
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument("no trainable columns in table '" +
                                   table.name() + "'");
  }

  // Row sample for training (ModelForge trains on sampled data).
  const int64_t total_rows = table.num_rows();
  std::vector<int64_t> rows;
  if (options.max_train_rows > 0 && total_rows > options.max_train_rows) {
    Rng rng(options.seed);
    rows.resize(total_rows);
    std::iota(rows.begin(), rows.end(), 0);
    for (int64_t i = 0; i < options.max_train_rows; ++i) {
      const int64_t j = i + static_cast<int64_t>(rng.Uniform(total_rows - i));
      std::swap(rows[i], rows[j]);
    }
    rows.resize(options.max_train_rows);
  } else {
    rows.resize(total_rows);
    std::iota(rows.begin(), rows.end(), 0);
  }

  // Discretizers + binned data matrix.
  const int num_vars = static_cast<int>(columns.size());
  std::vector<std::vector<int>> data(num_vars);
  std::vector<int> bins(num_vars);
  model.nodes_.resize(num_vars);

  for (int v = 0; v < num_vars; ++v) {
    const int col_idx = columns[v];
    const minihouse::Column& col = table.column(col_idx);
    std::vector<int64_t> values;
    values.reserve(rows.size());
    for (int64_t r : rows) values.push_back(col.NumericAt(r));

    auto boundary_it = options.join_column_boundaries.find(col_idx);
    if (boundary_it != options.join_column_boundaries.end()) {
      model.nodes_[v].discretizer =
          Discretizer::BuildWithBoundaries(boundary_it->second, values);
    } else {
      model.nodes_[v].discretizer =
          Discretizer::Build(values, options.max_bins);
    }
    model.nodes_[v].column = col_idx;
    bins[v] = model.nodes_[v].num_bins();
    if (bins[v] == 0) {
      return Status::Internal("empty discretizer for column " +
                              std::to_string(col_idx));
    }
    data[v].reserve(values.size());
    for (int64_t value : values) {
      data[v].push_back(model.nodes_[v].discretizer.BinOf(value));
    }
  }

  // Structure learning (Chow-Liu) ...
  const ChowLiuTree tree = LearnChowLiuTree(data, bins);
  for (int v = 0; v < num_vars; ++v) {
    model.nodes_[v].parent = tree.parent[v];
  }

  // ... then parameter learning: smoothed maximum likelihood (EM degenerates
  // to this in one step when all variables are observed).
  const double alpha = options.laplace_alpha;
  const int64_t n = static_cast<int64_t>(rows.size());
  for (int v = 0; v < num_vars; ++v) {
    BnNode& node = model.nodes_[v];
    const int nb = bins[v];
    if (node.parent < 0) {
      node.cpd.assign(nb, 0.0);
      for (int64_t i = 0; i < n; ++i) node.cpd[data[v][i]] += 1.0;
      const double denom = static_cast<double>(n) + alpha * nb;
      for (double& p : node.cpd) p = (p + alpha) / denom;
    } else {
      const int pb = bins[node.parent];
      node.cpd.assign(static_cast<size_t>(pb) * nb, 0.0);
      std::vector<double> parent_count(pb, 0.0);
      const std::vector<int>& pdata = data[node.parent];
      for (int64_t i = 0; i < n; ++i) {
        node.cpd[static_cast<size_t>(pdata[i]) * nb + data[v][i]] += 1.0;
        parent_count[pdata[i]] += 1.0;
      }
      for (int p = 0; p < pb; ++p) {
        const double denom = parent_count[p] + alpha * nb;
        for (int b = 0; b < nb; ++b) {
          double& cell = node.cpd[static_cast<size_t>(p) * nb + b];
          cell = (cell + alpha) / denom;
        }
      }
    }
  }
  return model;
}

BayesNetModel BayesNetModel::FromParts(std::string table_name,
                                       int64_t row_count,
                                       std::vector<BnNode> nodes) {
  BayesNetModel model;
  model.table_name_ = std::move(table_name);
  model.row_count_ = row_count;
  model.nodes_ = std::move(nodes);
  return model;
}

int BayesNetModel::NodeOfColumn(int column) const {
  for (int v = 0; v < num_nodes(); ++v) {
    if (nodes_[v].column == column) return v;
  }
  return -1;
}

Status BayesNetModel::ValidateStructure() const {
  const int n = num_nodes();
  if (n == 0) return Status::InvalidModel("BN has no nodes");
  int roots = 0;
  for (const BnNode& node : nodes_) {
    if (node.parent < 0) {
      ++roots;
    } else if (node.parent >= n) {
      return Status::InvalidModel("BN parent index out of range");
    }
    const size_t expected =
        node.parent < 0 ? static_cast<size_t>(node.num_bins())
                        : static_cast<size_t>(nodes_[node.parent].num_bins()) *
                              node.num_bins();
    if (node.cpd.size() != expected) {
      return Status::InvalidModel("BN CPD shape mismatch");
    }
    for (double p : node.cpd) {
      if (!std::isfinite(p) || p < 0.0) {
        return Status::InvalidModel("BN CPD has non-finite/negative entry");
      }
    }
  }
  if (roots != 1) return Status::InvalidModel("BN must have exactly one root");

  // Cycle detection (the paper's health-detector DAG check): walk up from
  // every node; a cycle shows as a path longer than n.
  for (int v = 0; v < n; ++v) {
    int cur = v;
    int steps = 0;
    while (cur >= 0) {
      cur = nodes_[cur].parent;
      if (++steps > n) return Status::InvalidModel("BN parent cycle");
    }
  }
  return Status::Ok();
}

void BayesNetModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kBnFormatVersion);
  writer->WriteString(table_name_);
  writer->WriteI64(row_count_);
  writer->WriteU64(nodes_.size());
  for (const BnNode& node : nodes_) {
    writer->WriteI64(node.column);
    writer->WriteI64(node.parent);
    node.discretizer.Serialize(writer);
    writer->WriteDoubleVec(node.cpd);
  }
}

Result<BayesNetModel> BayesNetModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kBnFormatVersion) {
    return Status::InvalidModel("unsupported BN artifact version");
  }
  BayesNetModel model;
  BC_RETURN_IF_ERROR(reader->ReadString(&model.table_name_));
  BC_RETURN_IF_ERROR(reader->ReadI64(&model.row_count_));
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(reader->ReadU64(&n));
  model.nodes_.resize(n);
  for (auto& node : model.nodes_) {
    int64_t column = 0;
    int64_t parent = 0;
    BC_RETURN_IF_ERROR(reader->ReadI64(&column));
    BC_RETURN_IF_ERROR(reader->ReadI64(&parent));
    node.column = static_cast<int>(column);
    node.parent = static_cast<int>(parent);
    BC_ASSIGN_OR_RETURN(node.discretizer, Discretizer::Deserialize(reader));
    BC_RETURN_IF_ERROR(reader->ReadDoubleVec(&node.cpd));
  }
  return model;
}

// ---------------------------------------------------------------------------
// Inference context
// ---------------------------------------------------------------------------

namespace {

// Grows `v` to at least `n` entries; never shrinks, so scratch reused across
// contexts of different sizes is not re-zeroed on every probe.
template <typename T>
void EnsureSize(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

std::atomic<uint64_t> next_context_id{1};

}  // namespace

struct BnInferenceContext::Scratch {
  std::vector<uint8_t> has_evidence;  // per node
  std::vector<uint8_t> dirty;         // per node: on an evidence-to-root path
  std::vector<double> evidence;       // at up_offset_, where has_evidence
  std::vector<double> up;             // at up_offset_, where dirty
  std::vector<double> child_sum;      // at sum_offset_, where dirty
  std::vector<int> nonzero;           // nonzero bins of one child message
  // MarginalWithEvidence's downward pass along the root -> target path.
  std::vector<int> path;
  std::vector<double> down;
  std::vector<double> next_down;
  std::vector<double> factor;
};

BnInferenceContext::BnInferenceContext(const BayesNetModel* model)
    : model_(model), id_(next_context_id.fetch_add(1)) {
  const int n = model->num_nodes();
  children_.assign(n, {});
  for (int v = 0; v < n; ++v) {
    const int p = model->nodes()[v].parent;
    if (p < 0) {
      root_ = v;  // root identification (paper §4.1, item 1)
    } else {
      children_[p].push_back(v);
    }
    max_column_ = std::max(max_column_, model->nodes()[v].column);
    max_bins_ = std::max(max_bins_, model->nodes()[v].num_bins());
  }
  col_to_node_.assign(max_column_ + 1, -1);
  for (int v = 0; v < n; ++v) {
    col_to_node_[model->nodes()[v].column] = v;
  }
  if (n == 0) return;

  // Topological order (BFS from the root: parents before children).
  topo_.reserve(n);
  topo_.push_back(root_);
  for (size_t i = 0; i < topo_.size(); ++i) {
    for (int c : children_[topo_[i]]) topo_.push_back(c);
  }
  BC_CHECK(static_cast<int>(topo_.size()) == n);

  // CPD indexing (paper §4.1, item 2): flatten all CPDs into one array in
  // topological order for locality and direct offset access. Messages get
  // the same treatment.
  cpd_offset_.assign(n, 0);
  up_offset_.assign(n, 0);
  sum_offset_.assign(n, 0);
  int64_t offset = 0;
  int64_t up_size = 0;
  int64_t sum_size = 0;
  for (int v : topo_) {
    const BnNode& node = model->nodes()[v];
    cpd_offset_[v] = offset;
    offset += static_cast<int64_t>(node.cpd.size());
    up_offset_[v] = up_size;
    up_size += node.num_bins();
    if (node.parent >= 0) {
      sum_offset_[v] = sum_size;
      sum_size += model->nodes()[node.parent].num_bins();
    }
  }
  flat_cpd_.resize(offset);
  for (int v : topo_) {
    const auto& cpd = model->nodes()[v].cpd;
    std::copy(cpd.begin(), cpd.end(), flat_cpd_.begin() + cpd_offset_[v]);
  }

  // Evidence-free messages: the upward pass with every node marked and no
  // evidence, frozen for every later probe to read.
  Scratch s;
  s.has_evidence.assign(n, 0);
  s.dirty.assign(n, 1);
  s.up.resize(up_size);
  s.child_sum.resize(sum_size);
  UpwardPass(&s);
  base_up_ = std::move(s.up);
  base_child_sum_ = std::move(s.child_sum);
}

void BnInferenceContext::LoadEvidence(const minihouse::Conjunction& filters,
                                      Scratch* s) const {
  const int n = model_->num_nodes();
  s->has_evidence.assign(n, 0);
  s->dirty.assign(n, 0);
  EnsureSize(&s->evidence, base_up_.size());
  EnsureSize(&s->up, base_up_.size());
  EnsureSize(&s->child_sum, base_child_sum_.size());
  for (const minihouse::ColumnPredicate& pred : filters) {
    if (pred.column < 0 || pred.column > max_column_) continue;
    const int v = col_to_node_[pred.column];
    if (v < 0) continue;
    const std::vector<double> w =
        model_->nodes()[v].discretizer.PredicateWeights(pred);
    double* e = s->evidence.data() + up_offset_[v];
    if (!s->has_evidence[v]) {
      std::copy(w.begin(), w.end(), e);
      s->has_evidence[v] = 1;
    } else {
      for (size_t b = 0; b < w.size(); ++b) e[b] *= w[b];
    }
    for (int u = v; u >= 0 && !s->dirty[u]; u = model_->nodes()[u].parent) {
      s->dirty[u] = 1;
    }
  }
}

void BnInferenceContext::UpwardPass(Scratch* s) const {
  // Children before parents: iterate topo order in reverse.
  for (size_t i = topo_.size(); i-- > 0;) {
    const int v = topo_[i];
    if (!s->dirty[v]) continue;
    const int nb = model_->nodes()[v].num_bins();
    double* up_v = s->up.data() + up_offset_[v];
    if (s->has_evidence[v]) {
      std::copy_n(s->evidence.data() + up_offset_[v], nb, up_v);
    } else {
      std::fill_n(up_v, nb, 1.0);
    }
    for (int c : children_[v]) {
      if (s->dirty[c]) {
        // S_c(x_v) = sum_{x_c} P(x_c | x_v) up_c(x_c), via the flat CPD
        // array, over the nonzero bins of up_c only: an equality or narrow
        // range predicate zeroes most of them, and with finite, non-negative
        // CPDs and messages a skipped term is +0, so every sum is unchanged.
        const int cb = model_->nodes()[c].num_bins();
        const double* up_c = s->up.data() + up_offset_[c];
        s->nonzero.clear();
        for (int b = 0; b < cb; ++b) {
          if (up_c[b] != 0.0) s->nonzero.push_back(b);
        }
        const double* cpd = flat_cpd_.data() + cpd_offset_[c];
        double* sums = s->child_sum.data() + sum_offset_[c];
        for (int p = 0; p < nb; ++p) {
          const double* row = cpd + static_cast<size_t>(p) * cb;
          double sum = 0.0;
          for (int b : s->nonzero) sum += row[b] * up_c[b];
          sums[p] = sum;
        }
      }
      const double* sums = ChildSum(c, *s);
      for (int b = 0; b < nb; ++b) up_v[b] *= sums[b];
    }
  }
}

const double* BnInferenceContext::Up(int v, const Scratch& s) const {
  return (s.dirty[v] ? s.up.data() : base_up_.data()) + up_offset_[v];
}

const double* BnInferenceContext::ChildSum(int c, const Scratch& s) const {
  return (s.dirty[c] ? s.child_sum.data() : base_child_sum_.data()) +
         sum_offset_[c];
}

namespace {

// Planner-call memo: one optimizer pass asks for the same (context, filters)
// selectivity dozens of times (column ordering probes, every join-order
// subset). thread_local keeps inference lock-free across query threads.
struct SelectivityCacheEntry {
  uint64_t context = 0;
  uint64_t key = 0;
  double selectivity = 0.0;
};

uint64_t HashConjunction(const minihouse::Conjunction& filters) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h ^= (x ^ (x >> 27)) + (h << 6) + (h >> 2);
  };
  for (const minihouse::ColumnPredicate& pred : filters) {
    mix(static_cast<uint64_t>(pred.column));
    mix(static_cast<uint64_t>(pred.op));
    mix(static_cast<uint64_t>(pred.operand));
    mix(static_cast<uint64_t>(pred.operand2));
    for (int64_t v : pred.in_list) mix(static_cast<uint64_t>(v));
  }
  return h | 1ULL;
}

constexpr size_t kSelectivityCacheSlots = 256;

}  // namespace

double BnInferenceContext::EstimateSelectivity(
    const minihouse::Conjunction& filters) const {
  if (model_->num_nodes() == 0) return 1.0;

  thread_local std::vector<SelectivityCacheEntry> cache(
      kSelectivityCacheSlots);
  const uint64_t key = HashConjunction(filters);
  SelectivityCacheEntry& slot =
      cache[(key ^ (id_ * 0x9e3779b97f4a7c15ULL)) % kSelectivityCacheSlots];
  if (slot.context == id_ && slot.key == key) return slot.selectivity;

  thread_local Scratch s;
  LoadEvidence(filters, &s);
  UpwardPass(&s);

  const BnNode& root = model_->nodes()[root_];
  const double* prior = flat_cpd_.data() + cpd_offset_[root_];
  const double* up = Up(root_, s);
  double z = 0.0;
  for (int b = 0; b < root.num_bins(); ++b) z += prior[b] * up[b];
  z = std::clamp(z, 0.0, 1.0);
  slot = {id_, key, z};
  return z;
}

double BnInferenceContext::EstimateCount(
    const minihouse::Conjunction& filters) const {
  return EstimateSelectivity(filters) *
         static_cast<double>(model_->row_count());
}

Result<std::vector<double>> BnInferenceContext::MarginalWithEvidence(
    const minihouse::Conjunction& filters, int column) const {
  const int target = column <= max_column_ && column >= 0
                         ? col_to_node_[column]
                         : -1;
  if (target < 0) {
    return Status::NotFound("column " + std::to_string(column) +
                            " not modelled by BN for table '" +
                            model_->table_name() + "'");
  }
  thread_local Scratch s;
  LoadEvidence(filters, &s);
  UpwardPass(&s);

  // Downward pass along the root -> target path only (marginals elsewhere
  // are not needed).
  s.path.clear();
  for (int v = target; v != -1; v = model_->nodes()[v].parent) {
    s.path.push_back(v);
  }
  std::reverse(s.path.begin(), s.path.end());
  BC_CHECK(s.path.front() == root_);

  EnsureSize(&s.down, max_bins_);
  EnsureSize(&s.next_down, max_bins_);
  EnsureSize(&s.factor, max_bins_);
  const BnNode& root = model_->nodes()[root_];
  std::copy_n(flat_cpd_.data() + cpd_offset_[root_], root.num_bins(),
              s.down.data());

  for (size_t i = 1; i < s.path.size(); ++i) {
    const int v = s.path[i - 1];
    const int c = s.path[i];
    const int vb = model_->nodes()[v].num_bins();
    const int cb = model_->nodes()[c].num_bins();

    // factor_v(x_v) = down_v(x_v) * w_v(x_v) * prod_{s in ch(v), s != c} S_s.
    const double* evidence =
        s.has_evidence[v] ? s.evidence.data() + up_offset_[v] : nullptr;
    for (int b = 0; b < vb; ++b) {
      double f = s.down[b];
      if (evidence != nullptr) f *= evidence[b];
      for (int sibling : children_[v]) {
        if (sibling == c) continue;
        f *= ChildSum(sibling, s)[b];
      }
      s.factor[b] = f;
    }
    const double* cpd = flat_cpd_.data() + cpd_offset_[c];
    std::fill_n(s.next_down.data(), cb, 0.0);
    for (int p = 0; p < vb; ++p) {
      if (s.factor[p] == 0.0) continue;
      const double* row = cpd + static_cast<size_t>(p) * cb;
      for (int b = 0; b < cb; ++b) s.next_down[b] += s.factor[p] * row[b];
    }
    std::swap(s.down, s.next_down);
  }

  const double* up = Up(target, s);
  std::vector<double> marginal(model_->nodes()[target].num_bins(), 0.0);
  for (size_t b = 0; b < marginal.size(); ++b) {
    marginal[b] = s.down[b] * up[b];
  }
  return marginal;
}

double BnInferenceContext::EstimateSelectivityTreeWalk(
    const minihouse::Conjunction& filters) const {
  // Reference implementation that re-derives structure on the fly and walks
  // node structs recursively (pointer-chasing through per-node vectors),
  // i.e. exactly what InitContext's frozen index and messages avoid.
  const auto& nodes = model_->nodes();
  std::vector<std::vector<double>> evidence(nodes.size());
  for (const minihouse::ColumnPredicate& pred : filters) {
    if (pred.column < 0 || pred.column > max_column_) continue;
    const int v = col_to_node_[pred.column];
    if (v < 0) continue;
    std::vector<double> w = nodes[v].discretizer.PredicateWeights(pred);
    if (evidence[v].empty()) {
      evidence[v] = std::move(w);
    } else {
      for (size_t b = 0; b < w.size(); ++b) evidence[v][b] *= w[b];
    }
  }

  struct Walker {
    const std::vector<BnNode>& nodes;
    const std::vector<std::vector<double>>& evidence;

    std::vector<int> ChildrenOf(int v) const {
      std::vector<int> out;
      for (int c = 0; c < static_cast<int>(nodes.size()); ++c) {
        if (nodes[c].parent == v) out.push_back(c);
      }
      return out;
    }

    std::vector<double> Up(int v) const {
      const int nb = nodes[v].num_bins();
      std::vector<double> up(nb, 1.0);
      if (!evidence[v].empty()) up = evidence[v];
      for (int c : ChildrenOf(v)) {
        const std::vector<double> up_c = Up(c);
        const int cb = nodes[c].num_bins();
        for (int b = 0; b < nb; ++b) {
          double s = 0.0;
          for (int x = 0; x < cb; ++x) {
            s += nodes[c].cpd[static_cast<size_t>(b) * cb + x] * up_c[x];
          }
          up[b] *= s;
        }
      }
      return up;
    }
  };

  Walker walker{nodes, evidence};
  int root = 0;
  for (int v = 0; v < static_cast<int>(nodes.size()); ++v) {
    if (nodes[v].parent < 0) root = v;
  }
  const std::vector<double> up = walker.Up(root);
  double z = 0.0;
  for (int b = 0; b < nodes[root].num_bins(); ++b) {
    z += nodes[root].cpd[b] * up[b];
  }
  return std::clamp(z, 0.0, 1.0);
}

}  // namespace bytecard::cardest

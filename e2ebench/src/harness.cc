#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bytecard/model_forge.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/qerror.h"
#include "workload/truth.h"

namespace e2e {

namespace mh = bytecard::minihouse;
namespace wl = bytecard::workload;

// --- TempDir -----------------------------------------------------------------------

TempDir::TempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/e2e-models-XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  BC_CHECK(::mkdtemp(buffer.data()) != nullptr) << "mkdtemp under " << parent;
  path_ = buffer.data();
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

// --- Tracer ------------------------------------------------------------------------

void Tracer::Record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::RecordChild(const char* name, const Span& parent,
                         double duration_us) {
  if (!enabled_) return;
  Record({name, NewId(), parent.id, parent.request, parent.start_us,
          parent.start_us + duration_us});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  BC_CHECK(f != nullptr) << "cannot write " << path;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"request\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.start_us, s.end_us);
  }
  std::fclose(f);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const Span* parent,
                       int64_t request)
    : tracer_(tracer) {
  span_.name = name;
  span_.parent = parent == nullptr ? 0 : parent->id;
  span_.request = request;
  if (tracer_->enabled()) {
    span_.id = tracer_->NewId();
    span_.start_us = tracer_->NowUs();
  }
}

const Span& ScopedSpan::Close() {
  if (open_ && tracer_->enabled()) {
    span_.end_us = tracer_->NowUs();
    tracer_->Record(span_);
  }
  open_ = false;
  return span_;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  std::map<int64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  for (const Span& s : spans) {
    const double duration = s.end_us - s.start_us;
    summary.duration_us[s.name].push_back(duration);
    auto it = child_us.find(s.id);
    const double children = it == child_us.end() ? 0.0 : it->second;
    summary.self_us[s.name].push_back(std::max(0.0, duration - children));
  }
  return summary;
}

// --- Metrics -------------------------------------------------------------------------

void RunReport::Note(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  Note(key, std::string(buffer));
}

double Quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : wl::Quantile(std::move(values), q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Failures::Add(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kRejected:
      ++rejected;
      break;
    case Outcome::kExecError:
      ++exec_errors;
      break;
    case Outcome::kWrongResult:
      ++wrong_results;
      break;
  }
}

// --- Closed loop -------------------------------------------------------------------

std::vector<Sample> RunClosedLoop(const std::vector<int>& requests_per_client,
                                  const IssueFn& issue) {
  const int clients = static_cast<int>(requests_per_client.size());
  std::vector<std::vector<Sample>> per_client(clients);
  Stopwatch clock;
  auto body = [&](int c) {
    per_client[c].reserve(requests_per_client[c]);
    for (int i = 0; i < requests_per_client[c]; ++i) {
      Sample sample = issue(c, i);
      sample.done_us = clock.ElapsedMicros();
      per_client[c].push_back(sample);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(body, c);
  if (clients > 0) body(0);
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& samples : per_client) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

LoopTiming SummarizeLoop(std::vector<Sample> samples, int window) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_us < b.done_us; });
  LoopTiming timing;
  std::vector<double> latencies;
  std::vector<double> window_qps;
  std::vector<double> window_p99;
  std::vector<double> window_latencies;
  double window_start_us = 0.0;
  for (const Sample& s : samples) {
    if (s.outcome == Outcome::kRejected || s.outcome == Outcome::kExecError) {
      continue;  // not completed: counted as failures, not timed
    }
    latencies.push_back(s.latency_ms);
    window_latencies.push_back(s.latency_ms);
    if (static_cast<int>(window_latencies.size()) == window) {
      const double span_s = (s.done_us - window_start_us) / 1e6;
      window_qps.push_back(window / std::max(span_s, 1e-9));
      window_p99.push_back(Quantile(window_latencies, 0.99));
      window_latencies.clear();
      window_start_us = s.done_us;
    }
  }
  timing.windows = static_cast<int>(window_qps.size());
  timing.wall_s = samples.empty() ? 0.0 : samples.back().done_us / 1e6;
  BC_CHECK(timing.windows > 0)
      << "fewer than one window (" << window << ") of completed requests";
  timing.qps = Median(window_qps);
  timing.p50_ms = Median(latencies);
  timing.p99_ms = Median(window_p99);
  return timing;
}

// --- Inputs ------------------------------------------------------------------------

std::vector<int> ExecutableSlice(const wl::Workload& workload) {
  std::vector<int> executable;
  for (int qi = 0; qi < static_cast<int>(workload.queries.size()); ++qi) {
    const wl::WorkloadQuery& wq = workload.queries[qi];
    if (!wq.aggregate) {
      auto truth = wl::TrueCount(wq.query);
      BC_CHECK_OK(truth.status());
      if (truth.value() > 1000000) continue;
    }
    executable.push_back(qi);
  }
  BC_CHECK(!executable.empty());
  return executable;
}

std::vector<int> ZipfMix(int n, double s, int block, int count, uint64_t seed,
                         uint64_t stream) {
  std::vector<double> share(n);
  double total = 0.0;
  for (int r = 0; r < n; ++r) total += share[r] = 1.0 / std::pow(r + 1.0, s);
  std::vector<int> counts(n);
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int r = 0; r < n; ++r) {
    const double exact = block * share[r] / total;
    counts[r] = static_cast<int>(exact);
    assigned += counts[r];
    remainders.emplace_back(exact - counts[r], r);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int i = 0; assigned < block; ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  std::vector<int> mix;
  for (int r = 0; r < n; ++r) mix.insert(mix.end(), counts[r], r);

  bytecard::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1);
  std::vector<int> picks;
  while (static_cast<int>(picks.size()) < count) {
    rng.Shuffle(&mix);
    picks.insert(picks.end(), mix.begin(), mix.end());
  }
  picks.resize(count);
  return picks;
}

GroupRows SortedGroups(const mh::AggregateResult& agg) {
  GroupRows rows(agg.num_groups);
  for (int64_t g = 0; g < agg.num_groups; ++g) {
    for (const auto& keys : agg.group_keys) rows[g].first.push_back(keys[g]);
    for (const auto& vals : agg.agg_values) rows[g].second.push_back(vals[g]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool SameGroups(const GroupRows& want, const GroupRows& got) {
  if (want.size() != got.size()) return false;
  for (size_t g = 0; g < want.size(); ++g) {
    if (want[g].first != got[g].first) return false;
    if (want[g].second.size() != got[g].second.size()) return false;
    for (size_t a = 0; a < want[g].second.size(); ++a) {
      const double w = want[g].second[a];
      const double h = got[g].second[a];
      if (std::fabs(w - h) > 1e-9 * std::max({1.0, std::fabs(w), std::fabs(h)})) {
        return false;
      }
    }
  }
  return true;
}

Reference ComputeReference(const mh::BoundQuery& query) {
  Reference ref;
  if (query.group_by.empty() && query.aggs.size() == 1 &&
      query.aggs[0].func == mh::AggFunc::kCountStar) {
    auto truth = wl::TrueCount(query);
    BC_CHECK_OK(truth.status());
    ref.scalar = true;
    ref.count = truth.value();
    return ref;
  }
  mh::PhysicalPlan plan;
  plan.scans.resize(query.tables.size());
  auto result = mh::ExecuteQuery(query, plan);
  BC_CHECK_OK(result.status());
  ref.groups = SortedGroups(result.value().agg);
  return ref;
}

bool Matches(const Reference& ref, const mh::ExecResult& got) {
  if (ref.scalar) return got.ScalarCount() == ref.count;
  return SameGroups(ref.groups, SortedGroups(got.agg));
}

Sample ServeSqlRequest(ByteCard* bytecard, const std::string& sql,
                       const mh::Database& db, const Reference& ref,
                       Tracer* tracer, int64_t request, StatsTotals* totals) {
  Sample sample;
  Stopwatch timer;
  ScopedSpan root(tracer, "request", nullptr, request);
  ScopedSpan submit(tracer, "scheduler.submit", &root.span(), request);
  std::shared_ptr<mh::QueryTicket> ticket = bytecard->Submit(sql, db);
  submit.Close();
  ScopedSpan wait(tracer, "scheduler.wait", &root.span(), request);
  bytecard::Result<mh::ExecResult> result = bytecard->Wait(ticket);
  wait.Close();
  sample.latency_ms = timer.ElapsedMillis();
  root.Close();
  if (!result.ok()) {
    sample.outcome = Outcome::kExecError;
    return sample;
  }
  const mh::ExecStats& stats = result.value().stats;
  totals->AddExec(stats);
  tracer->RecordChild("optimizer.plan", submit.span(), stats.plan_ms * 1e3);
  tracer->RecordChild("scheduler.queue", wait.span(), stats.queue_ms * 1e3);
  tracer->RecordChild("executor.exec", wait.span(), stats.exec_ms * 1e3);
  sample.outcome = Matches(ref, result.value()) ? Outcome::kOk
                                                : Outcome::kWrongResult;
  return sample;
}

Failures TallyServeFailures(const std::vector<Sample>& samples,
                            int64_t scheduler_submitted) {
  Failures failures;
  for (const Sample& s : samples) failures.Add(s.outcome);
  failures.rejected = static_cast<int64_t>(samples.size()) - scheduler_submitted;
  failures.exec_errors -= failures.rejected;
  BC_CHECK(failures.exec_errors >= 0);
  return failures;
}

// --- Set-up ------------------------------------------------------------------------

SetupTimes MedianSetup(const std::vector<SetupTimes>& reps) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& r : reps) values.push_back(r.*field);
    return Median(values);
  };
  SetupTimes m;
  m.datagen_s = median_of(&SetupTimes::datagen_s);
  m.rbx_train_s = median_of(&SetupTimes::rbx_train_s);
  m.bootstrap_s = median_of(&SetupTimes::bootstrap_s);
  m.warmup_s = median_of(&SetupTimes::warmup_s);
  return m;
}

std::string TrainRbx(const std::string& dir) {
  bytecard::ModelForgeService forge(dir);
  bytecard::cardest::RbxTrainOptions options;
  options.seed = kDataSeed;
  auto artifact = forge.TrainRbx(options);
  BC_CHECK_OK(artifact.status());
  return artifact.value().path;
}

std::unique_ptr<ByteCard> BootstrapByteCard(
    const mh::Database& db, const std::vector<mh::BoundQuery>& hint,
    const std::string& dir, const std::string& rbx_path) {
  ByteCard::Options options;
  options.seed = kDataSeed;
  options.pretrained_rbx_path = rbx_path;
  auto bc = ByteCard::Bootstrap(db, hint, dir, options);
  BC_CHECK_OK(bc.status());
  return std::move(bc).value();
}

// --- Shared reporting --------------------------------------------------------------

namespace {

// Q-error of ByteCard::EstimateCount against workload::TrueCount over
// `queries`, on the data as it is now: {p50, p95}.
std::pair<double, double> QErrorQuantiles(
    ByteCard* bytecard, const std::vector<wl::WorkloadQuery>& queries) {
  std::vector<double> qerrors;
  for (const wl::WorkloadQuery& wq : queries) {
    auto truth = wl::TrueCount(wq.query);
    BC_CHECK_OK(truth.status());
    qerrors.push_back(wl::QError(bytecard->EstimateCount(wq.query),
                                 static_cast<double>(truth.value())));
  }
  return {Quantile(qerrors, 0.5), Quantile(qerrors, 0.95)};
}

// Encoded stored bytes / raw (8 bytes per value) bytes.
double StoredBytesRatio(const mh::Database& db) {
  double raw = 0.0;
  for (const std::string& name : db.TableNames()) {
    const mh::Table* table = db.FindTable(name).value();
    raw += 8.0 * table->num_rows() * table->num_columns();
  }
  return raw > 0.0 ? static_cast<double>(db.EncodedBytes()) / raw : 1.0;
}

}  // namespace

void ReportEndToEnd(RunReport* report, const Failures& failures,
                    int64_t attempted, const SetupTimes& setup,
                    const LoopTiming& timing, ByteCard* bytecard,
                    const std::vector<wl::WorkloadQuery>& queries,
                    const mh::Database& db) {
  report->attempted = attempted;
  report->failed = failures.total();
  report->correct = failures.exec_errors == 0 && failures.wrong_results == 0;
  report->Note("windows", timing.windows);
  report->Note("timed_wall_s", timing.wall_s);
  report->Note("rejected", static_cast<double>(failures.rejected));
  report->Note("exec_errors", static_cast<double>(failures.exec_errors));
  report->Note("wrong_results", static_cast<double>(failures.wrong_results));

  const auto [qerror_p50, qerror_p95] = QErrorQuantiles(bytecard, queries);
  report->AddE2e("setup_s", setup.total_s(), "s");
  report->AddE2e("qps", timing.qps, "1/s");
  report->AddE2e("latency_p50_ms", timing.p50_ms, "ms");
  report->AddE2e("latency_p99_ms", timing.p99_ms, "ms");
  report->AddE2e("success_rate",
                 1.0 - static_cast<double>(failures.total()) / attempted,
                 "ratio");
  report->AddE2e("qerror_p50", qerror_p50, "ratio");
  report->AddE2e("qerror_p95", qerror_p95, "ratio");
  report->AddE2e("stored_bytes_ratio", StoredBytesRatio(db), "ratio");
  report->AddE2e("peak_rss_mb", PeakRssMb(), "MB");
}

void StatsTotals::AddExec(const mh::ExecStats& s) {
  ++requests;
  estimator_calls += s.estimator_calls;
  memo_hits += s.memo_hits;
  probe_cache_hits += s.probe_cache_hits;
  fallback_estimates += s.fallback_estimates;
  feedback_hits += s.feedback_hits;
  routed_estimates += s.routed_estimates;
  route_fallbacks += s.route_fallbacks;
  heavy += s.heavy_lane ? 1 : 0;
  parallel_tasks += s.parallel_tasks;
  blocks_read += s.io.blocks_read;
  blocks_pruned += s.blocks_pruned;
  intermediate_rows += s.intermediate_rows;
  specialized_ops += s.specialized_ops;
  despecialized_morsels += s.despecialized_morsels;
  agg_resize_count += s.agg_resize_count;
  encoded_blocks_scanned += s.encoded_blocks_scanned;
  decode_cache_hits += s.decode_cache_hits;
  decode_cache_evictions += s.decode_cache_evictions;
  bytes_resident_max = std::max(bytes_resident_max, s.bytes_resident);
}

void StatsTotals::AddPlan(const mh::EstimationStats& s) {
  ++requests;
  estimator_calls += s.estimator_calls;
  memo_hits += s.memo_hits;
  probe_cache_hits += s.probe_cache_hits;
  fallback_estimates += s.fallback_estimates;
  feedback_hits += s.feedback_hits;
  routed_estimates += s.routed_estimates;
  route_fallbacks += s.route_fallbacks;
}

void StatsTotals::Merge(const StatsTotals& o) {
  requests += o.requests;
  estimator_calls += o.estimator_calls;
  memo_hits += o.memo_hits;
  probe_cache_hits += o.probe_cache_hits;
  fallback_estimates += o.fallback_estimates;
  feedback_hits += o.feedback_hits;
  routed_estimates += o.routed_estimates;
  route_fallbacks += o.route_fallbacks;
  heavy += o.heavy;
  parallel_tasks += o.parallel_tasks;
  blocks_read += o.blocks_read;
  blocks_pruned += o.blocks_pruned;
  intermediate_rows += o.intermediate_rows;
  specialized_ops += o.specialized_ops;
  despecialized_morsels += o.despecialized_morsels;
  agg_resize_count += o.agg_resize_count;
  encoded_blocks_scanned += o.encoded_blocks_scanned;
  decode_cache_hits += o.decode_cache_hits;
  decode_cache_evictions += o.decode_cache_evictions;
  bytes_resident_max = std::max(bytes_resident_max, o.bytes_resident_max);
}

namespace {

void AddCardestLayers(RunReport* report, ByteCard* bytecard,
                      const std::vector<mh::BoundQuery>& queries,
                      Tracer* tracer) {
  int64_t request = 1000000000;  // apart from the workload's request ids
  for (const mh::BoundQuery& query : queries) {
    ++request;
    for (const mh::BoundTableRef& ref : query.tables) {
      if (ref.filters.empty()) continue;
      ScopedSpan span(tracer, "cardest.selectivity", nullptr, request);
      bytecard->EstimateSelectivity(*ref.table, ref.filters);
    }
    if (query.num_tables() > 1) {
      std::vector<int> all(query.num_tables());
      for (int t = 0; t < query.num_tables(); ++t) all[t] = t;
      ScopedSpan span(tracer, "cardest.join", nullptr, request);
      bytecard->EstimateJoinCardinality(query, all);
    }
    if (!query.group_by.empty()) {
      ScopedSpan span(tracer, "cardest.group_ndv", nullptr, request);
      bytecard->EstimateGroupNdv(query);
    }
  }
  const SpanSummary summary = Summarize(tracer->spans());
  auto p50 = [&](const std::string& name) {
    auto it = summary.duration_us.find(name);
    return it == summary.duration_us.end() ? 0.0 : Median(it->second);
  };
  report->AddLayer("cardest.selectivity_us_p50", p50("cardest.selectivity"),
                   "us");
  report->AddLayer("cardest.join_us_p50", p50("cardest.join"), "us");
  report->AddLayer("cardest.group_ndv_us_p50", p50("cardest.group_ndv"), "us");
}

void AddLayerMetrics(RunReport* report, const SpanSummary& spans,
                     const LayerInputs& in, int64_t traced_requests,
                     double trace_qps) {
  const StatsTotals& t = in.totals;
  const double requests = std::max<int64_t>(1, traced_requests);
  const double stat_requests = std::max<int64_t>(1, t.requests);
  auto durations = [&](const std::string& name) {
    auto it = spans.duration_us.find(name);
    return it == spans.duration_us.end() ? std::vector<double>{} : it->second;
  };
  auto self = [&](const std::string& name) {
    auto it = spans.self_us.find(name);
    return it == spans.self_us.end() ? std::vector<double>{} : it->second;
  };
  auto per_req = [&](int64_t count) { return count / stat_requests; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Self time of every span of a layer, divided by the traced requests.
  std::map<std::string, double> layer_self;
  for (const auto& [name, self_us] : spans.self_us) {
    if (name.rfind("cardest.", 0) == 0) continue;  // timed apart from requests
    const size_t dot = name.find('.');
    const std::string layer =
        dot == std::string::npos ? "client" : name.substr(0, dot);
    for (double us : self_us) layer_self[layer] += us;
  }
  for (const char* layer :
       {"client", "sql", "optimizer", "scheduler", "executor", "ingest"}) {
    report->AddLayer(std::string("self.") + layer + "_us",
                     layer_self[layer] / requests, "us/req");
  }

  report->AddLayer("sql.analyze_us_p50", Median(durations("sql.analyze")), "us");
  report->AddLayer("sql.rejected", in.sql_rejected, "count");

  std::vector<double> plan_us = durations("optimizer.plan");
  report->AddLayer("optimizer.plan_us_p50", Quantile(plan_us, 0.5), "us");
  report->AddLayer("optimizer.plan_us_p99", Quantile(plan_us, 0.99), "us");
  report->AddLayer("optimizer.estimator_calls", per_req(t.estimator_calls),
                   "count/req");
  report->AddLayer("optimizer.memo_hits", per_req(t.memo_hits), "count/req");
  report->AddLayer("optimizer.probe_cache_hits", per_req(t.probe_cache_hits),
                   "count/req");
  report->AddLayer("cardest.fallback_estimates", per_req(t.fallback_estimates),
                   "count/req");

  report->AddLayer("routing.mine_ms", in.mine_ms, "ms");
  report->AddLayer("routing.routed_share",
                   ratio(t.routed_estimates, t.estimator_calls), "ratio");
  report->AddLayer("routing.route_fallbacks", per_req(t.route_fallbacks),
                   "count/req");
  report->AddLayer("feedback.hit_share",
                   ratio(t.feedback_hits, t.feedback_hits + t.estimator_calls),
                   "ratio");

  std::vector<double> queue_ms = durations("scheduler.queue");
  for (double& q : queue_ms) q /= 1e3;
  // Submit's self time excludes the plan it contains (analysis,
  // classification, enqueue); Wait's self time is the hand-off around the
  // queue wait and execution it contains.
  report->AddLayer("scheduler.submit_us_p50", Median(self("scheduler.submit")),
                   "us");
  report->AddLayer("scheduler.queue_ms_p99", Quantile(queue_ms, 0.99), "ms");
  report->AddLayer("scheduler.handoff_us_p50", Median(self("scheduler.wait")),
                   "us");
  report->AddLayer("scheduler.heavy_share", ratio(t.heavy, t.requests), "ratio");
  report->AddLayer("scheduler.parallel_tasks", per_req(t.parallel_tasks),
                   "count/req");

  std::vector<double> exec_ms = durations("executor.exec");
  for (double& e : exec_ms) e /= 1e3;
  report->AddLayer("executor.exec_ms_p50", Quantile(exec_ms, 0.5), "ms");
  report->AddLayer("executor.exec_ms_p99", Quantile(exec_ms, 0.99), "ms");
  report->AddLayer("executor.blocks_read", per_req(t.blocks_read), "count/req");
  report->AddLayer("executor.blocks_pruned", per_req(t.blocks_pruned),
                   "count/req");
  report->AddLayer("executor.intermediate_rows", per_req(t.intermediate_rows),
                   "count/req");
  report->AddLayer("executor.specialized_ops", per_req(t.specialized_ops),
                   "count/req");
  report->AddLayer("executor.despecialized_morsels",
                   per_req(t.despecialized_morsels), "count/req");
  report->AddLayer("executor.agg_resize_count", per_req(t.agg_resize_count),
                   "count/req");

  report->AddLayer("decode_cache.hit_ratio",
                   ratio(t.decode_cache_hits, t.encoded_blocks_scanned), "ratio");
  report->AddLayer("decode_cache.evictions", per_req(t.decode_cache_evictions),
                   "count/req");
  report->AddLayer("decode_cache.bytes_resident",
                   t.bytes_resident_max / (1024.0 * 1024.0), "MB");

  auto ms_p50 = [&](const std::string& name) {
    return Median(durations(name)) / 1e3;
  };
  // The batch call minus the observers it ran: the append + reseal itself.
  report->AddLayer("ingest.append_ms_p50", Median(self("ingest.batch")) / 1e3,
                   "ms");
  report->AddLayer("ingest.maintain_ms_p50", ms_p50("ingest.maintain"), "ms");
  report->AddLayer("ingest.feedback_invalidate_ms_p50",
                   ms_p50("ingest.feedback_invalidate"), "ms");
  report->AddLayer("ingest.publishes",
                   in.ingest_batches > 0
                       ? static_cast<double>(in.ingest_publishes) / in.ingest_batches
                       : 0.0,
                   "count/batch");
  report->AddLayer("ingest.rows_per_s", in.ingest_rows_per_s, "1/s");
  report->AddLayer("trace.qps", trace_qps, "1/s");
}

}  // namespace

void ReportLayers(RunReport* report, Tracer* tracer, const LayerInputs& in,
                  const LoopTiming& timing, const SetupTimes& setup,
                  ByteCard* bytecard,
                  const std::vector<mh::BoundQuery>& cardest_queries) {
  AddLayerMetrics(report, Summarize(tracer->spans()), in, report->attempted,
                  timing.qps);
  AddCardestLayers(report, bytecard, cardest_queries, tracer);
  report->AddLayer("setup.datagen_s", setup.datagen_s, "s");
  report->AddLayer("setup.rbx_train_s", setup.rbx_train_s, "s");
  report->AddLayer("setup.bootstrap_s", setup.bootstrap_s, "s");
  report->AddLayer("setup.warmup_s", setup.warmup_s, "s");
}

}  // namespace e2e

// e2ebench: one run of one workload of the end-to-end benchmark.
//
//   e2ebench --workload <serve-job|plan-stats|ingest-aeolus> --seed <n>
//            --seconds <n> --trace <0|1> [--work-dir <dir>]
//
// Prints the run's provenance and metrics, then as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Traced runs
// also write their spans to <work-dir>/trace-<workload>.jsonl.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<serve-job|plan-stats|ingest-aeolus> --seed <n> --seconds <n> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

e2e::Args ParseArgs(int argc, char** argv) {
  e2e::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

std::string Env(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr || *v == '\0' ? fallback : v;
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

void PrintMetrics(const char* title, const std::vector<e2e::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const e2e::Metric& m : metrics) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bytecard::SetLogLevel(bytecard::LogLevel::kWarning);
  const e2e::Args args = ParseArgs(argc, argv);

  e2e::Tracer tracer(args.trace);
  e2e::RunReport report;
  if (args.workload == "serve-job") {
    report = e2e::RunServeJob(args, &tracer);
  } else if (args.workload == "plan-stats") {
    report = e2e::RunPlanStats(args, &tracer);
  } else if (args.workload == "ingest-aeolus") {
    report = e2e::RunIngestAeolus(args, &tracer);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (tracer.enabled()) {
    tracer.WriteJsonl(args.work_dir + "/trace-" + args.workload + ".jsonl");
  }

  // Provenance: where and how this result was produced.
  std::vector<std::pair<std::string, std::string>> provenance = {
      {"workload", args.workload},
      {"git_sha", Env("BYTECARD_GIT_SHA", "unknown")},
      {"utc", UtcNow()},
      {"build_type", E2E_BUILD_TYPE},
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"bytecard_threads", Env("BYTECARD_THREADS", "unset")},
      {"seed", std::to_string(args.seed)},
      {"scale", std::to_string(e2e::kScale)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
  };
  provenance.insert(provenance.end(), report.provenance.begin(),
                    report.provenance.end());
  std::printf("provenance {");
  for (size_t i = 0; i < provenance.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                provenance[i].first.c_str(), provenance[i].second.c_str());
  }
  std::printf("}\n");

  PrintMetrics("end-to-end:", report.end_to_end);
  if (args.trace) PrintMetrics("per-layer:", report.per_layer);

  const std::vector<e2e::Metric>& metrics =
      args.trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    BC_CHECK(std::isfinite(metrics[i].value)) << metrics[i].name;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

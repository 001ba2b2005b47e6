// The repository benchmark: three closed-loop workloads driven through
// TxmlClient against an in-process TxmlServer, plus a traced run that
// reports per-layer times. See perfbench/README.md.
//
//   txml_perfbench --workload history_reads --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// Exit status: 0 on success, 1 on a wrong answer or failed request, 2 on a
// usage or set-up error (no result printed).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "perfbench/trace.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: txml_perfbench --workload history_reads|"
               "corpus_point_reads|ingest --seed N --seconds S --trace 0|1\n"
               "       [--smoke] [--dump-inputs] [--work-dir DIR] "
               "[--trace-out FILE] [--git-sha SHA]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        if (!ParseWorkload(value(), &args.workload)) Usage("unknown workload");
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
        if (!(args.seconds > 0)) Usage("--seconds must be positive");
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--dump-inputs") {
        args.dump_inputs = true;
      } else if (flag == "--work-dir") {
        args.work_dir = value();
      } else if (flag == "--trace-out") {
        args.trace_out = value();
      } else if (flag == "--git-sha") {
        args.git_sha = value();
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The run context every result records.
std::string ContextJson(const Args& args, const Inputs& inputs) {
  const Sizes& s = inputs.sizes;
#ifdef TXML_LOCK_RANK
  const char* lock_rank = "ON";
#else
  const char* lock_rank = "OFF";
#endif
#ifdef TXML_FAILPOINTS
  const char* failpoints = "ON";
#else
  const char* failpoints = "OFF";
#endif
  std::string j = "{";
  j += "\"workload\": " + JsonString(WorkloadName(args.workload));
  j += ", \"seed\": " + std::to_string(args.seed);
  j += ", \"seconds\": " + JsonNumber(args.seconds);
  j += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  j += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
  j += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  j += ", \"git_sha\": " + JsonString(args.git_sha);
  j += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  j += ", \"TXML_LOCK_RANK\": " + JsonString(lock_rank);
  j += ", \"TXML_FAILPOINTS\": " + JsonString(failpoints);
  j += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  j += ", \"sizes\": {\"documents\": " + std::to_string(s.documents) +
       ", \"versions\": " + std::to_string(s.versions) +
       ", \"items\": " + std::to_string(s.items) +
       ", \"mutations_per_version\": " + std::to_string(s.mutations) +
       ", \"queries_per_connection\": " +
       std::to_string(s.queries_per_connection) +
       ", \"warmup_per_connection\": " +
       std::to_string(s.warmup_per_connection) +
       ", \"puts_per_document\": " + std::to_string(s.next_versions) +
       ", \"setups\": " + std::to_string(s.setups) +
       ", \"checkpoint_log_records\": " +
       std::to_string(s.checkpoint_log_records) + "}";
  j += ", \"clients\": {\"read_connections\": " +
       std::to_string(s.read_connections) +
       ", \"write_connections\": " + std::to_string(s.write_connections) + "}";
  j += ", \"sync_mode\": " +
       JsonString(s.durable ? "always" : "in-memory (no WAL)");
  j += ", \"input_fingerprint\": " + JsonString([&] {
         char buf[32];
         std::snprintf(buf, sizeof(buf), "%016llx",
                       static_cast<unsigned long long>(inputs.Fingerprint()));
         return std::string(buf);
       }());
  return j + "}";
}

void PrintMetric(const Metric& m, const char* kind) {
  std::printf("%s %s = %s %s\n", kind, m.name.c_str(),
              JsonNumber(m.value).c_str(), m.unit.c_str());
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Sizes sizes =
      args.smoke ? Sizes::Smoke(args.workload) : Sizes::Defaults(args.workload);

  const int64_t gen_start = NowNanos();
  const Inputs inputs = MakeInputs(args.workload, sizes, args.seed);
  const double gen_s = static_cast<double>(NowNanos() - gen_start) / 1e9;
  if (args.dump_inputs) {
    std::printf("fingerprint %016llx\nshape %s\n",
                static_cast<unsigned long long>(inputs.Fingerprint()),
                inputs.Shape().c_str());
    return 0;
  }

  if (args.work_dir.empty()) {
    args.work_dir = "perfbench-work-" + std::to_string(getpid());
  }
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);

  std::printf("context %s\n", ContextJson(args, inputs).c_str());
  std::printf("inputs %s (generated in %.3f s)\n", inputs.Shape().c_str(),
              gen_s);
  std::fflush(stdout);

  Result result;
  if (args.trace) {
    RunTraced(args, inputs, &result);
  } else {
    RunWorkload(args, inputs, &result);
  }
  std::filesystem::remove_all(args.work_dir);

  for (const std::string& note : result.notes) std::printf("note %s\n", note.c_str());
  for (const Metric& m : result.extra) PrintMetric(m, "info");
  for (const Metric& m : result.metrics) PrintMetric(m, "metric");

  const bool correct = result.wrong == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

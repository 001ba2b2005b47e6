#ifndef TXML_PERFBENCH_BENCH_H_
#define TXML_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/service/service.h"

namespace perfbench {

/// Command-line arguments of the benchmark binary.
struct Args {
  Workload workload = Workload::kHistoryReads;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool dump_inputs = false;
  /// Scratch directory for durable data dirs and shadow logs; created by
  /// the run and removed at its end.
  std::string work_dir;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run prints: the gated metrics (the last line's JSON object) plus
/// context-only figures printed above it.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed + wrong-answer operations
  uint64_t wrong = 0;   // wrong answers alone
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> notes;
};

/// Aborts the run: message to stderr, exit code 2, no result printed.
[[noreturn]] void Die(const std::string& message);

/// A TemporalQueryService in the server's default configuration behind a
/// TxmlServer on an ephemeral loopback port.
class Instance {
 public:
  /// `data_dir` empty = in-memory service.
  static std::unique_ptr<Instance> Start(const Sizes& sizes,
                                         const std::string& data_dir);
  ~Instance();

  txml::TemporalQueryService* service() { return service_.get(); }
  uint16_t port() const { return server_->port(); }
  const std::string& data_dir() const { return data_dir_; }
  /// Stops the server, then destroys the service (closing its WAL).
  void Shutdown();

 private:
  std::string data_dir_;
  std::unique_ptr<txml::TemporalQueryService> service_;
  std::unique_ptr<txml::TxmlServer> server_;
};

/// The service options every instance uses: the defaults, plus the data
/// dir and the workload's auto-checkpoint trigger.
txml::ServiceOptions ServiceOptionsFor(const Sizes& sizes,
                                       const std::string& data_dir);

/// Runs one workload per `args`; fills `result`.
void RunWorkload(const Args& args, const Inputs& inputs, Result* result);

/// The traced run of one workload (per-layer metrics).
void RunTraced(const Args& args, const Inputs& inputs, Result* result);

// ---- shared helpers (bench.cc) ----

double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The latencies `us` grouped by the whole one-second window their
/// completion time `end_s` falls in. A trailing partial window is dropped,
/// unless the run was shorter than one window.
std::vector<std::vector<double>> OneSecondWindows(
    const std::vector<double>& us, const std::vector<double>& end_s);
double PeakRssMb();
uint64_t DirectoryBytes(const std::string& dir);

/// The set-up write path: every document's history as WriteBatchRequests
/// of up to `sizes.load_batch` items, version by version.
std::vector<txml::WriteBatchRequest> LoadBatches(const Inputs& inputs,
                                                 size_t connection,
                                                 size_t connections);

/// Loads the set-up histories over the wire from `connections` parallel
/// clients; returns the per-batch round trips in µs.
std::vector<double> LoadOverWire(const Inputs& inputs, uint16_t port,
                                 size_t connections);

/// A WriteBatchRequest is acknowledged only when every item committed.
bool BatchCommitted(const txml::StatusOr<txml::QueryResponse>& response);

/// Connects a client to the loopback server; dies on failure.
txml::TxmlClient ConnectOrDie(uint16_t port);

/// Warm-up: each read connection runs its first warmup_per_connection
/// requests, in parallel. Timed requests continue from there.
void WarmUp(const Inputs& inputs, uint16_t port);

/// The state of one timed closed-loop window.
struct LoopOutcome {
  /// Round trips, their completion times (seconds since the window
  /// opened) and kinds, in parallel.
  std::vector<double> query_us;
  std::vector<double> query_end_s;
  std::vector<QuerySpec::Kind> query_kind;
  std::vector<double> put_us;
  std::vector<double> put_end_s;
  uint64_t query_failed = 0;
  uint64_t put_failed = 0;
  uint64_t put_bytes = 0;
  /// Payloads of the checked sample: the first check_per_connection timed
  /// requests of each read connection.
  std::vector<std::vector<std::string>> checked;
  /// ingest: acknowledged puts per document (a prefix of inputs.next).
  std::vector<size_t> acked;
  bool puts_exhausted = false;
};

/// The closed loop: every read connection and every writer connection
/// sends its next request as soon as the previous reply arrives, until
/// `seconds` have passed. `first_put[d]` is the index of document d's
/// first put in inputs.next.
LoopOutcome ClosedLoop(const Inputs& inputs, uint16_t port, double seconds,
                       const std::vector<size_t>& first_put);

/// Serializes a query result the way the service does for a default
/// (pretty) QueryRequest.
std::string SerializeResult(const txml::XmlDocument& doc);

}  // namespace perfbench

#endif  // TXML_PERFBENCH_BENCH_H_

// E13: network front-end throughput (src/net/).
//
// Measures queries/sec over loopback TCP through txml_server's frame
// protocol — encode, send, execute, stream back, decode — against the
// same service the in-process E12 benchmark exercises, so the delta
// between the two is the cost of the wire:
//
//   * BM_NetSnapshotReads: 1/2/4/8 client threads, each with its own
//     TxmlClient connection, materializing old versions of a 64-version
//     document (snapshot cache on — the serving cost E12 measures is
//     mostly paid from the cache, leaving the framing cost visible).
//   * BM_NetCurrentReads: the cheap current-version path under the same
//     thread counts — an upper bound on round trips/sec per connection.
//   * BM_NetPutRoundTrip: single-writer commits over the wire.
//
// The same thread-scaling caveat as E12 applies: on a single-core host
// the threaded rows measure convoying, not parallel speedup.
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <mutex>
#include <string>

#include "bench/bench_util.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/service/service.h"
#include "src/util/logging.h"

namespace txml {
namespace bench {
namespace {

constexpr size_t kVersions = 64;
constexpr int kHotDays[] = {4, 8, 12, 16, 20, 24, 28, 32};

/// One server over one populated service, shared by every benchmark in
/// the binary; started lazily on an ephemeral port.
class SharedServer {
 public:
  static SharedServer& Get() {
    static SharedServer instance;
    return instance;
  }

  uint16_t port() const { return server_->port(); }

 private:
  SharedServer() {
    HistorySpec spec;
    spec.versions = kVersions;
    spec.items = 60;
    spec.mutations_per_version = 4;
    ServiceOptions options;
    options.snapshot_cache_capacity = 256;
    // Queries run on the handler threads; only write batches and replay
    // fan out onto the pool, and this benchmark issues neither.
    options.worker_threads = 1;
    service_ = std::make_unique<TemporalQueryService>(options,
                                                      BuildHistory(spec));
    ServerOptions server_options;
    server_options.port = 0;
    server_options.connection_threads = 16;
    server_ = std::make_unique<TxmlServer>(service_.get(), server_options);
    Status started = server_->Start();
    TXML_CHECK(started.ok());
  }

  std::unique_ptr<TemporalQueryService> service_;
  std::unique_ptr<TxmlServer> server_;
};

StatusOr<TxmlClient> ConnectClient() {
  return TxmlClient::Connect("127.0.0.1", SharedServer::Get().port());
}

std::string SnapshotListing(int day) {
  return "SELECT R FROM doc(\"doc0\")[" +
         DayN(static_cast<size_t>(day)).ToString() + "]/item R";
}

void RunQueryLoop(benchmark::State& state, const std::string* queries,
                  size_t query_count) {
  auto client = ConnectClient();
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    QueryRequest request;
    request.query_text = queries[next % query_count];
    ++next;
    auto response = client->Execute(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(response->payload);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NetSnapshotReads(benchmark::State& state) {
  std::string queries[std::size(kHotDays)];
  for (size_t i = 0; i < std::size(kHotDays); ++i) {
    queries[i] = SnapshotListing(kHotDays[i]);
  }
  RunQueryLoop(state, queries, std::size(queries));
}
BENCHMARK(BM_NetSnapshotReads)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_NetCurrentReads(benchmark::State& state) {
  std::string query = SnapshotListing(static_cast<int>(kVersions) - 1);
  RunQueryLoop(state, &query, 1);
}
BENCHMARK(BM_NetCurrentReads)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_NetPutRoundTrip(benchmark::State& state) {
  auto client = ConnectClient();
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  int i = 0;
  for (auto _ : state) {
    PutRequest request;
    request.url = "net_put";
    request.xml_text =
        "<d><item><name>w" + std::to_string(i++) + "</name></item></d>";
    auto response = client->Execute(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(response->payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetPutRoundTrip)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace txml

BENCHMARK_MAIN();

// E16: WAL-shipping replication (src/repl/).
//
// Measures the read scale-out path and follower catch-up over loopback
// TCP — the same leader/follower wiring txml_server_main installs:
//
//   * BM_ReplFanoutReads/followers:{0,1,2}: four client threads, each
//     with its own RoutingClient, materializing old versions of a
//     64-version document. followers:0 routes every read to the leader
//     (the no-replication baseline); followers:N fans reads across N
//     read-only replicas.
//   * BM_ReplReadYourWrites: a commit on the leader followed by a read
//     through a follower carrying the commit's sequence token — the
//     full write-then-consistent-read round trip, including any
//     replica-lag wait.
//   * BM_ReplCatchUp: a blank follower subscribing, replaying the
//     leader's 64-record history, and reaching the leader's applied
//     floor. items/sec is WAL records applied per second end to end
//     (connect + ship + parse + diff + index).
//   * BM_ReplReseed: a blank follower subscribing to a leader whose
//     history lives only in its checkpoint (the WAL and tail were
//     truncated at the checkpoint sequence), so the subscribe is refused
//     below-floor and the follower re-seeds over the wire instead
//     (DESIGN.md §14): checkpoint stream + atomic install + resume.
//     bytes/sec is archive throughput; the time is till the follower
//     serves reads at the leader's floor.
//
// Single-core caveat (same as E12/E13): on a 1-CPU host leader,
// followers, and clients convoy on one core, so followers:1/2 rows
// measure routing and replication overhead, not parallel speedup — on
// real hardware each follower brings its own cores to the read path.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/server.h"
#include "src/repl/replica_applier.h"
#include "src/repl/routing_client.h"
#include "src/repl/wal_shipper.h"
#include "src/service/service.h"
#include "src/util/logging.h"

namespace txml {
namespace bench {
namespace {

constexpr size_t kVersions = 64;
constexpr int kFollowers = 2;
constexpr int kHotDays[] = {4, 8, 12, 16, 20, 24, 28, 32};

std::string ScratchDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("txml_bench_repl_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

ServiceOptions DurableOptions(const std::string& dir) {
  ServiceOptions options;
  // A follower batch prepares its windows on the applier thread plus
  // this many pool workers (ApplyLogged).
  options.worker_threads = 1;
  options.durability.data_dir = dir;
  options.durability.wal.sync_mode = WalSyncMode::kNone;
  options.durability.checkpoint_log_bytes = 0;
  options.durability.checkpoint_log_records = 0;
  return options;
}

// Version v of the benchmark document: items [1..v] with moving prices.
// ~40 bytes per item keeps the full 64-version history inside the
// leader's in-memory tail ring, so catch-up streams from the live tail.
std::string GuideXml(size_t v) {
  std::string xml = "<guide>";
  for (size_t i = 1; i <= v; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(10 * i + v) + "</price></item>";
  }
  return xml + "</guide>";
}

bool AwaitSequence(TemporalQueryService* service, uint64_t sequence) {
  for (int i = 0; i < 2000; ++i) {
    if (service->applied_sequence() >= sequence) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return service->applied_sequence() >= sequence;
}

/// One leader and two converged read-only followers, shared by every
/// benchmark in the binary; started lazily on ephemeral ports.
class SharedCluster {
 public:
  static SharedCluster& Get() {
    static SharedCluster instance;
    return instance;
  }

  RoutingClient::Endpoint leader() const {
    return {"127.0.0.1", leader_server_->port()};
  }
  std::vector<RoutingClient::Endpoint> followers(int count) const {
    std::vector<RoutingClient::Endpoint> endpoints;
    for (int i = 0; i < count; ++i) {
      endpoints.push_back({"127.0.0.1", follower_servers_[i]->port()});
    }
    return endpoints;
  }
  uint16_t leader_port() const { return leader_server_->port(); }
  uint64_t head_sequence() const {
    return leader_service_->applied_sequence();
  }
  TemporalQueryService* leader_service() { return leader_service_.get(); }

 private:
  SharedCluster() {
    auto service =
        TemporalQueryService::Create(DurableOptions(ScratchDir("leader")));
    TXML_CHECK(service.ok());
    leader_service_ = std::move(*service);
    WalShipper::Options shipper_options;
    shipper_options.heartbeat_interval_ms = 50;
    shipper_ = std::make_unique<WalShipper>(leader_service_.get(),
                                            shipper_options);
    ServerOptions server_options;
    server_options.port = 0;
    server_options.connection_threads = 16;
    WalShipper* shipper = shipper_.get();
    server_options.repl_handler = [shipper](Socket* socket,
                                            const ReplSubscribeRequest& sub) {
      shipper->Serve(socket, sub);
    };
    leader_server_ =
        std::make_unique<TxmlServer>(leader_service_.get(), server_options);
    TXML_CHECK(leader_server_->Start().ok());

    for (size_t v = 1; v <= kVersions; ++v) {
      auto put = leader_service_->PutAt("doc0", GuideXml(v), DayN(v - 1));
      TXML_CHECK(put.ok());
    }

    for (int i = 0; i < kFollowers; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      auto follower =
          TemporalQueryService::Create(DurableOptions(ScratchDir(name)));
      TXML_CHECK(follower.ok());
      follower_services_.push_back(std::move(*follower));
      ReplicaApplier::Options applier_options;
      applier_options.leader_port = leader_server_->port();
      applier_options.follower_name = "bench-f" + std::to_string(i);
      appliers_.push_back(std::make_unique<ReplicaApplier>(
          follower_services_.back().get(), applier_options));
      TXML_CHECK(appliers_.back()->Start().ok());
      ServerOptions follower_options;
      follower_options.port = 0;
      follower_options.connection_threads = 16;
      follower_options.read_only = true;
      follower_options.leader_hint =
          "127.0.0.1:" + std::to_string(leader_server_->port());
      follower_servers_.push_back(std::make_unique<TxmlServer>(
          follower_services_.back().get(), follower_options));
      TXML_CHECK(follower_servers_.back()->Start().ok());
      TXML_CHECK(
          AwaitSequence(follower_services_.back().get(), head_sequence()));
    }
  }

  std::unique_ptr<TemporalQueryService> leader_service_;
  std::unique_ptr<WalShipper> shipper_;
  std::unique_ptr<TxmlServer> leader_server_;
  std::vector<std::unique_ptr<TemporalQueryService>> follower_services_;
  std::vector<std::unique_ptr<ReplicaApplier>> appliers_;
  std::vector<std::unique_ptr<TxmlServer>> follower_servers_;
};

/// A leader whose history lives only in its checkpoint: the database is
/// built and checkpointed in one service lifetime, then reopened —
/// recovery floors both the WAL and the in-memory tail at the checkpoint
/// sequence, so a blank follower subscribing from zero is below the
/// replication floor and must re-seed over the wire (DESIGN.md §14).
class ReseedLeader {
 public:
  /// One shared leader per history size (the benchmark arg).
  static ReseedLeader& Get(size_t versions) {
    static std::map<size_t, std::unique_ptr<ReseedLeader>> instances;
    auto& slot = instances[versions];
    if (slot == nullptr) slot.reset(new ReseedLeader(versions));
    return *slot;
  }

  uint16_t port() const { return server_->port(); }
  uint64_t head_sequence() const { return service_->applied_sequence(); }

 private:
  explicit ReseedLeader(size_t versions) {
    std::string dir = ScratchDir("reseed_leader" + std::to_string(versions));
    {
      auto builder = TemporalQueryService::Create(DurableOptions(dir));
      TXML_CHECK(builder.ok());
      for (size_t v = 1; v <= versions; ++v) {
        TXML_CHECK((*builder)->PutAt("doc0", GuideXml(v), DayN(v - 1)).ok());
      }
      TXML_CHECK((*builder)->Checkpoint().ok());
    }
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    TXML_CHECK(service.ok());
    service_ = std::move(*service);
    WalShipper::Options shipper_options;
    shipper_options.heartbeat_interval_ms = 50;
    shipper_ = std::make_unique<WalShipper>(service_.get(), shipper_options);
    ServerOptions server_options;
    server_options.port = 0;
    server_options.connection_threads = 16;
    WalShipper* shipper = shipper_.get();
    server_options.repl_handler = [shipper](Socket* socket,
                                            const ReplSubscribeRequest& sub) {
      shipper->Serve(socket, sub);
    };
    server_options.checkpoint_handler =
        [shipper](Socket* socket, const CheckpointRequest& request) {
          shipper->ServeCheckpoint(socket, request);
        };
    server_ = std::make_unique<TxmlServer>(service_.get(), server_options);
    TXML_CHECK(server_->Start().ok());
  }

  std::unique_ptr<TemporalQueryService> service_;
  std::unique_ptr<WalShipper> shipper_;
  std::unique_ptr<TxmlServer> server_;
};

std::string SnapshotListing(int day) {
  return "SELECT R FROM doc(\"doc0\")[" +
         DayN(static_cast<size_t>(day)).ToString() + "]/guide/item R";
}

void BM_ReplFanoutReads(benchmark::State& state) {
  SharedCluster& cluster = SharedCluster::Get();
  int follower_count = static_cast<int>(state.range(0));
  RoutingClient routing(cluster.leader(), cluster.followers(follower_count),
                        ClientOptions());
  std::string queries[std::size(kHotDays)];
  for (size_t i = 0; i < std::size(kHotDays); ++i) {
    queries[i] = SnapshotListing(kHotDays[i]);
  }
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    QueryRequest request;
    request.query_text = queries[next % std::size(queries)];
    ++next;
    auto response = routing.Execute(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(response->payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplFanoutReads)
    ->ArgName("followers")->Arg(0)->Arg(1)->Arg(2)
    ->Threads(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_ReplReadYourWrites(benchmark::State& state) {
  SharedCluster& cluster = SharedCluster::Get();
  RoutingClient routing(cluster.leader(), cluster.followers(kFollowers),
                        ClientOptions());
  std::string read = SnapshotListing(kHotDays[0]);
  int i = 0;
  for (auto _ : state) {
    PutRequest put;
    put.url = "ryw";
    put.xml_text =
        "<d><item><name>w" + std::to_string(i++) + "</name></item></d>";
    auto wrote = routing.Execute(put);
    if (!wrote.ok()) {
      state.SkipWithError(wrote.status().ToString().c_str());
      return;
    }
    QueryRequest request;
    request.query_text = read;
    auto response = routing.Execute(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(response->payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplReadYourWrites)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ReplCatchUp(benchmark::State& state) {
  SharedCluster& cluster = SharedCluster::Get();
  uint64_t head = cluster.head_sequence();
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = ScratchDir("catchup" + std::to_string(round++));
    state.ResumeTiming();
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    if (!service.ok()) {
      state.SkipWithError(service.status().ToString().c_str());
      return;
    }
    ReplicaApplier::Options options;
    options.leader_port = cluster.leader_port();
    options.follower_name = "bench-catchup";
    ReplicaApplier applier(service->get(), options);
    Status started = applier.Start();
    if (!started.ok()) {
      state.SkipWithError(started.ToString().c_str());
      return;
    }
    if (!AwaitSequence(service->get(), head)) {
      state.SkipWithError("follower never reached the leader head");
      return;
    }
    applier.Stop();
    state.PauseTiming();
    service->reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(head));
  state.counters["records"] = static_cast<double>(head);
}
BENCHMARK(BM_ReplCatchUp)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReplReseed(benchmark::State& state) {
  ReseedLeader& leader =
      ReseedLeader::Get(static_cast<size_t>(state.range(0)));
  uint64_t head = leader.head_sequence();
  int round = 0;
  int64_t archive_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = ScratchDir("reseed" + std::to_string(round++));
    state.ResumeTiming();
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    if (!service.ok()) {
      state.SkipWithError(service.status().ToString().c_str());
      return;
    }
    ReplicaApplier::Options options;
    options.leader_port = leader.port();
    options.follower_name = "bench-reseed";
    ReplicaApplier applier(service->get(), options);
    Status started = applier.Start();
    if (!started.ok()) {
      state.SkipWithError(started.ToString().c_str());
      return;
    }
    if (!AwaitSequence(service->get(), head)) {
      state.SkipWithError("follower never reached the leader head");
      return;
    }
    applier.Stop();
    ServiceStats stats = (*service)->Stats();
    if (stats.replication.reseeds == 0) {
      state.SkipWithError("follower caught up without re-seeding");
      return;
    }
    archive_bytes += static_cast<int64_t>(stats.replication.reseed_bytes);
    state.PauseTiming();
    service->reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(archive_bytes);
  state.counters["covered_sequence"] = static_cast<double>(head);
}
BENCHMARK(BM_ReplReseed)
    ->ArgName("versions")->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace txml

BENCHMARK_MAIN();

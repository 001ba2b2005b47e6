// Replication tests (DESIGN.md §11, §14): follower catch-up from the
// on-disk WAL, live tail streaming, automatic checkpoint re-seed of a
// below-floor follower (including torn-transfer resume and the
// recoverable park when the leader refuses), byte-identical temporal
// query results across leader and followers, read-your-writes via the
// commit-sequence token, read-only write rejection, routing-client
// failover — and, when TXML_FAILPOINTS is compiled in, follower
// kill-and-restart sweeps that inject a fault at every WAL boundary the
// replication apply path hits and at every transfer/install boundary of
// a re-seed, checking the restarted follower still converges to the
// leader's answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/server.h"
#include "src/repl/replica_applier.h"
#include "src/repl/routing_client.h"
#include "src/repl/wal_shipper.h"
#include "src/service/service.h"
#include "src/storage/wal.h"
#include "src/util/crc32c.h"
#include "src/util/failpoint.h"
#include "src/xml/parser.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string DayStr(int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d/01/2001", d);
  return buf;
}

std::string TempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("txml_repl_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Small guide history: version v has items [1..v], prices move with v.
std::string GuideXml(int v) {
  std::string xml = "<guide>";
  for (int i = 1; i <= v; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(10 * i + v) + "</price></item>";
  }
  return xml + "</guide>";
}

ServiceOptions DurableOptions(const std::string& dir) {
  ServiceOptions options;
  options.worker_threads = 2;
  options.durability.data_dir = dir;
  // Tests sync explicitly through convergence waits; fsync-per-commit
  // only slows the suite down.
  options.durability.wal.sync_mode = WalSyncMode::kNone;
  options.durability.checkpoint_log_bytes = 0;
  options.durability.checkpoint_log_records = 0;
  // Keep the read-your-writes timeout test fast.
  options.read_wait_timeout_ms = 200;
  return options;
}

/// The cross-node oracle battery: snapshot scans and lifetime operators
/// at two anchors, a DIFF, and an [EVERY] history (the durability suite's
/// battery — replication must preserve exactly what recovery preserves).
std::vector<std::string> OracleQueries(int last_day) {
  std::string t1 = DayStr(1);
  std::string t2 = DayStr(last_day);
  return {
      "SELECT R FROM doc(\"u\")[" + t2 + "]/guide/item R",
      "SELECT R/name FROM doc(\"u\")[" + t2 +
          "]/guide/item R WHERE R/price < 150",
      "SELECT COUNT(R) FROM doc(\"u\")[" + t1 + "]/guide/item R",
      "SELECT R/name, CREATE TIME(R) FROM doc(\"u\")[" + t2 +
          "]/guide/item R",
      "SELECT DIFF(R1, R2) FROM doc(\"u\")[" + t1 + "]/guide R1, doc(\"u\")[" +
          t2 + "]/guide R2 WHERE R1 == R2",
      "SELECT TIME(R), R/price FROM doc(\"u\")[EVERY]/guide/item R "
      "WHERE CREATE TIME(R) >= " +
          t1,
  };
}

/// Unified-Execute convenience: run one query and unwrap the payload
/// as a local helper (the service API itself has no string-unwrap call).
StatusOr<std::string> RunQuery(TemporalQueryService* service,
                               const std::string& query, bool pretty = true) {
  QueryRequest request;
  request.query_text = query;
  request.pretty = pretty;
  auto response = service->Execute(request);
  if (!response.ok()) return response.status();
  return std::move(response->payload);
}

std::vector<std::string> AnswersOf(TemporalQueryService* service,
                                   int last_day) {
  std::vector<std::string> answers;
  for (const std::string& q : OracleQueries(last_day)) {
    auto out = RunQuery(service, q);
    answers.push_back(out.ok() ? *out : "<error: " + out.status().ToString() +
                                            " for " + q + ">");
  }
  return answers;
}

/// An in-process leader: durable service + shipper + TCP server with the
/// replication hook installed (the same wiring txml_server_main does).
struct Leader {
  std::unique_ptr<TemporalQueryService> service;
  std::unique_ptr<WalShipper> shipper;
  std::unique_ptr<TxmlServer> server;

  uint16_t port() const { return server->port(); }

  void Put(int day) {
    auto result = service->PutAt("u", GuideXml(day), Day(day));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  ~Leader() {
    if (shipper) shipper->Stop();
    if (server) server->Stop();
  }
};

WalShipper::Options FastShipperOptions() {
  WalShipper::Options options;
  options.heartbeat_interval_ms = 50;
  // Small chunks so a re-seed spans several frames — the torn-transfer
  // and chaos tests cut mid-stream.
  options.checkpoint_chunk_bytes = 256;
  return options;
}

/// A durable leader serving subscriptions. Without `serve_checkpoints` its
/// server has no checkpoint handler, as `txml_server --reseed=off` runs.
std::unique_ptr<Leader> StartLeader(
    const std::string& dir,
    WalShipper::Options shipper_options = FastShipperOptions(),
    bool serve_checkpoints = true) {
  auto leader = std::make_unique<Leader>();
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return nullptr;
  leader->service = std::move(*service);
  leader->shipper =
      std::make_unique<WalShipper>(leader->service.get(), shipper_options);
  ServerOptions server_options;
  server_options.port = 0;
  WalShipper* shipper = leader->shipper.get();
  server_options.repl_handler = [shipper](Socket* socket,
                                          const ReplSubscribeRequest& sub) {
    shipper->Serve(socket, sub);
  };
  if (serve_checkpoints) {
    server_options.checkpoint_handler =
        [shipper](Socket* socket, const CheckpointRequest& request) {
          shipper->ServeCheckpoint(socket, request);
        };
  }
  server_options.stats_extra = [shipper](XmlNode* stats) {
    stats->AddChild(shipper->StatsElement());
  };
  leader->server =
      std::make_unique<TxmlServer>(leader->service.get(), server_options);
  Status started = leader->server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  if (!started.ok()) return nullptr;
  return leader;
}

ReplicaApplier::Options FastApplierOptions(uint16_t leader_port,
                                           const std::string& name) {
  ReplicaApplier::Options options;
  options.leader_port = leader_port;
  options.follower_name = name;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 50;
  // A parked follower re-probes fast enough for the tests to observe the
  // recovery (default 30s would stall the suite).
  options.fatal_retry_ms = 50;
  return options;
}

/// An in-process follower: durable service + applier + read-only server.
struct Follower {
  std::unique_ptr<TemporalQueryService> service;
  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<TxmlServer> server;

  uint16_t port() const { return server->port(); }

  ~Follower() {
    if (applier) applier->Stop();
    if (server) server->Stop();
  }
};

/// A follower whose durable service has recovered from `dir`, with nothing
/// started yet.
std::unique_ptr<Follower> OpenFollower(const std::string& dir) {
  auto follower = std::make_unique<Follower>();
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return nullptr;
  follower->service = std::move(*service);
  return follower;
}

/// Starts an opened follower's applier and, `with_server`, its read-only
/// server.
std::unique_ptr<Follower> StartFollower(std::unique_ptr<Follower> follower,
                                        uint16_t leader_port,
                                        const std::string& name,
                                        bool with_server = true) {
  if (follower == nullptr) return nullptr;
  follower->applier = std::make_unique<ReplicaApplier>(
      follower->service.get(), FastApplierOptions(leader_port, name));
  Status started = follower->applier->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  if (!started.ok()) return nullptr;
  if (with_server) {
    ServerOptions server_options;
    server_options.port = 0;
    server_options.read_only = true;
    server_options.leader_hint = "127.0.0.1:" + std::to_string(leader_port);
    follower->server = std::make_unique<TxmlServer>(follower->service.get(),
                                                    server_options);
    Status server_started = follower->server->Start();
    EXPECT_TRUE(server_started.ok()) << server_started.ToString();
    if (!server_started.ok()) return nullptr;
  }
  return follower;
}

std::unique_ptr<Follower> StartFollower(const std::string& dir,
                                        uint16_t leader_port,
                                        const std::string& name,
                                        bool with_server = true) {
  return StartFollower(OpenFollower(dir), leader_port, name, with_server);
}

/// Polls until the follower's applied floor reaches `sequence` (true) or
/// ~5s elapse (false).
bool AwaitSequence(TemporalQueryService* service, uint64_t sequence) {
  for (int i = 0; i < 500; ++i) {
    if (service->applied_sequence() >= sequence) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return service->applied_sequence() >= sequence;
}

// ------------------------------------------------------------ catch-up --

TEST(ReplicationTest, FollowerCatchesUpFromLiveTail) {
  auto leader = StartLeader(TempDir("live_leader"));
  ASSERT_NE(leader, nullptr);
  auto follower = StartFollower(TempDir("live_f1"), leader->port(), "f1",
                                /*with_server=*/false);
  ASSERT_NE(follower, nullptr);

  for (int day = 1; day <= 5; ++day) leader->Put(day);
  ASSERT_TRUE(AwaitSequence(follower->service.get(),
                            leader->service->applied_sequence()));

  EXPECT_EQ(AnswersOf(follower->service.get(), 5),
            AnswersOf(leader->service.get(), 5));
}

TEST(ReplicationTest, FollowerCatchesUpFromDiskWalAfterTailEviction) {
  // A busy leader evicts old records from the bounded in-memory tail
  // (its byte budget), while they are still in the on-disk log. A blank
  // follower subscribing from 0 is then below the tail floor and must be
  // caught up from disk before switching to the live tail.
  auto leader = StartLeader(TempDir("disk_leader"));
  ASSERT_NE(leader, nullptr);
  for (int day = 1; day <= 4; ++day) leader->Put(day);
  // ~80 × 64KiB ≈ 5MiB of later traffic pushes the early records out of
  // the 4MiB tail ring.
  std::string filler =
      "<big>" + std::string(64 * 1024, 'x') + "</big>";
  for (int i = 1; i <= 80; ++i) {
    auto result = leader->service->PutAt("big", filler, Day(10 + i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  uint64_t leader_head = leader->service->applied_sequence();
  ASSERT_EQ(leader_head, 84u);
  // The precondition this test is about: sequence 1 is no longer in the
  // in-memory tail, only on disk.
  ASSERT_TRUE(leader->service->wal_tail()
                  ->ReadAfter(0, 1, 1 << 20, /*timeout_ms=*/0)
                  .below_floor);

  auto follower = StartFollower(TempDir("disk_f1"), leader->port(), "f1",
                                /*with_server=*/false);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), leader_head));

  // …then the live tail takes over seamlessly for new commits.
  leader->Put(5);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), leader_head + 1));
  EXPECT_EQ(AnswersOf(follower->service.get(), 5),
            AnswersOf(leader->service.get(), 5));
}

/// A leader directory whose WAL was truncated by a checkpoint covering
/// sequence `days` — after a restart nothing on it reaches back to 0, so
/// a blank follower is below the floor and must re-seed.
std::string CheckpointedLeaderDir(const std::string& tag, int days) {
  std::string dir = TempDir(tag);
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  for (int day = 1; day <= days; ++day) {
    auto put = (*service)->PutAt("u", GuideXml(day), Day(day));
    EXPECT_TRUE(put.ok()) << put.status().ToString();
  }
  Status checkpointed = (*service)->Checkpoint();
  EXPECT_TRUE(checkpointed.ok()) << checkpointed.ToString();
  return dir;
}

TEST(ReplicationTest, BelowFloorFollowerAutoReseeds) {
  // The leader checkpointed (truncating its WAL past sequence 3) and then
  // restarted, so neither its live tail nor its disk log reaches back to
  // sequence 0: a blank follower can never be served the early records.
  // The shipper answers kOutOfRange and the applier streams the leader's
  // checkpoint over the wire, installs it, and resumes the subscribe
  // loop — no operator action (DESIGN.md §14).
  auto leader = StartLeader(CheckpointedLeaderDir("reseed_leader", 3));
  ASSERT_NE(leader, nullptr);

  auto follower = StartFollower(TempDir("reseed_f1"), leader->port(), "f1",
                                /*with_server=*/false);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));

  ReplicaApplier::State state = follower->applier->GetState();
  EXPECT_GE(state.reseeds, 1u);
  EXPECT_FALSE(state.fatal);
  ServiceStats stats = follower->service->Stats();
  EXPECT_GE(stats.replication.reseeds, 1u);
  EXPECT_GT(stats.replication.reseed_bytes, 0u);

  // The subscribe loop resumed: new leader commits stream normally and
  // the whole history answers identically.
  leader->Put(4);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), 4));
  EXPECT_EQ(AnswersOf(follower->service.get(), 4),
            AnswersOf(leader->service.get(), 4));

  // The transfer landed on the follower's stats row on the leader too.
  bool served = false;
  for (const auto& f : leader->shipper->Followers()) {
    served |= f.name == "f1" && f.checkpoints_served >= 1 &&
              f.checkpoint_bytes_sent > 0;
  }
  EXPECT_TRUE(served);
  EXPECT_NE(leader->shipper->StatsElement()->ToString().find(
                "checkpoints-served="),
            std::string::npos);
}

TEST(ReplicationTest, ReseededFollowerRestartResumesNormally) {
  // After a re-seed the follower's directory is a normal durable node:
  // a restart recovers from the installed checkpoint + its own WAL and
  // resumes replication without re-seeding again.
  auto leader = StartLeader(CheckpointedLeaderDir("reseed_restart_leader", 3));
  ASSERT_NE(leader, nullptr);
  std::string follower_dir = TempDir("reseed_restart_f1");
  {
    auto follower = StartFollower(follower_dir, leader->port(), "f1",
                                  /*with_server=*/false);
    ASSERT_NE(follower, nullptr);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));
    ASSERT_GE(follower->applier->GetState().reseeds, 1u);
  }  // follower process "dies"

  leader->Put(4);
  auto follower = StartFollower(follower_dir, leader->port(), "f1",
                                /*with_server=*/false);
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(follower->service->applied_sequence(), 3u);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), 4));
  EXPECT_EQ(follower->applier->GetState().reseeds, 0u);
  EXPECT_EQ(AnswersOf(follower->service.get(), 4),
            AnswersOf(leader->service.get(), 4));
}

TEST(ReplicationTest, ReseedRefusalParksRecoverably) {
  // A leader that refuses checkpoint transfers (--reseed=off) reproduces
  // the operator-driven workflow — but the park is no longer a dead
  // thread: the applier surfaces fatal + the refusal, then keeps
  // re-probing the leader on its slow retry timer.
  auto leader = StartLeader(CheckpointedLeaderDir("park_leader", 3),
                            FastShipperOptions(),
                            /*serve_checkpoints=*/false);
  ASSERT_NE(leader, nullptr);

  auto follower = StartFollower(TempDir("park_f1"), leader->port(), "f1",
                                /*with_server=*/false);
  ASSERT_NE(follower, nullptr);
  bool parked = false;
  for (int i = 0; i < 500 && !parked; ++i) {
    ReplicaApplier::State state = follower->applier->GetState();
    parked = state.fatal &&
             state.last_error.find("re-seed") != std::string::npos;
    if (!parked) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(parked) << follower->applier->GetState().last_error;
  EXPECT_EQ(follower->applier->GetState().reseeds, 0u);
  EXPECT_NE(follower->applier->StatsElement()->ToString().find(
                "fatal=\"true\""),
            std::string::npos);

  // Recoverable: with fatal_retry_ms at 50 the parked applier keeps
  // probing instead of halting its thread for good.
  uint64_t reconnects = follower->applier->GetState().reconnects;
  bool reprobed = false;
  for (int i = 0; i < 500 && !reprobed; ++i) {
    reprobed = follower->applier->GetState().reconnects > reconnects + 1;
    if (!reprobed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reprobed);
}

TEST(ReplicationTest, HeartbeatOnlyLeaderResetsReconnectBackoff) {
  // Regression: `failures` used to reset only when a batch applied, so a
  // healthy but idle leader — heartbeats only — kept every reconnect at
  // backoff_max. A fake leader accepts, heartbeats twice, drops the
  // connection, repeat: with heartbeats counting as progress the
  // follower reconnects on the *initial* backoff every time and racks up
  // sessions quickly; with the bug the escalating backoff (5ms doubling
  // toward 2s) cannot reach 12 reconnects inside the 2s deadline.
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread fake_leader([&listener] {
    while (true) {
      auto socket = listener->Accept();
      if (!socket.ok()) return;  // listener shut down — test over
      if (!socket->SetTimeouts(1000, 1000).ok()) continue;
      auto subscribe = ReadFrame(&*socket, kDefaultMaxFrameBytes);
      if (!subscribe.ok() || subscribe->type != FrameType::kReplSubscribe) {
        continue;
      }
      for (int i = 0; i < 2; ++i) {
        ReplHeartbeat heartbeat;
        if (!WriteFrame(&*socket, FrameType::kReplHeartbeat,
                        EncodeReplHeartbeat(heartbeat))
                 .ok()) {
          break;
        }
        if (!ReadFrame(&*socket, kDefaultMaxFrameBytes).ok()) break;
      }
      // The socket destructor drops the connection mid-stream.
    }
  });

  auto service =
      TemporalQueryService::Create(DurableOptions(TempDir("hb_backoff_f1")));
  ASSERT_TRUE(service.ok());
  ReplicaApplier::Options options;
  options.leader_port = listener->port();
  options.follower_name = "hb";
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 2000;
  {
    ReplicaApplier applier(service->get(), options);
    ASSERT_TRUE(applier.Start().ok());
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    bool reconnected = false;
    while (!reconnected && std::chrono::steady_clock::now() < deadline) {
      reconnected = applier.GetState().reconnects >= 12;
      if (!reconnected) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(reconnected)
        << "only " << applier.GetState().reconnects << " reconnects";
    EXPECT_FALSE(applier.GetState().fatal);
    applier.Stop();
  }
  listener->Shutdown();
  fake_leader.join();
}

TEST(ReplicationTest, ParkAndStopRaceStress) {
  // TSan coverage for the park path: the applier thread writes
  // fatal/last_error and signals stop_cv_ under mu_ while this thread
  // polls GetState and lands Stop() anywhere in the connect → refuse →
  // park → re-probe cycle. The pre-fix park returned without signaling,
  // so a Stop racing the (then-final) state write could observe it torn.
  auto leader = StartLeader(CheckpointedLeaderDir("race_leader", 2),
                            FastShipperOptions(),
                            /*serve_checkpoints=*/false);  // force the park
  ASSERT_NE(leader, nullptr);

  for (int round = 0; round < 8; ++round) {
    auto service = TemporalQueryService::Create(
        DurableOptions(TempDir("race_f_" + std::to_string(round))));
    ASSERT_TRUE(service.ok());
    ReplicaApplier::Options options =
        FastApplierOptions(leader->port(), "race");
    options.fatal_retry_ms = 5;
    ReplicaApplier applier(service->get(), options);
    ASSERT_TRUE(applier.Start().ok());
    std::thread poller([&applier] {
      for (int i = 0; i < 50; ++i) {
        applier.GetState();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(round * 3));
    applier.Stop();
    poller.join();
  }
}

TEST(ReplicationTest, TornCheckpointTransferNeverInstallsPartial) {
  // Serve a real checkpoint image over scripted connections that die at
  // every chunk boundary and corrupt every byte of the final chunk
  // (the durability suite's torn-WAL pattern, applied to the transfer).
  // The receiver must never hand back a partial image, must keep its
  // verified prefix for resume after a cut, and must reject corruption —
  // per-chunk CRC for a flipped byte, whole-archive CRC when the chunk
  // CRC was forged to match.
  auto service =
      TemporalQueryService::Create(DurableOptions(TempDir("torn_src")));
  ASSERT_TRUE(service.ok());
  for (int day = 1; day <= 3; ++day) {
    ASSERT_TRUE((*service)->PutAt("u", GuideXml(day), Day(day)).ok());
  }
  ASSERT_TRUE((*service)->Checkpoint().ok());
  auto image = (*service)->ExportCheckpoint();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::string archive = BuildCheckpointArchive(*image);
  constexpr uint64_t kChunk = 64;
  ASSERT_GT(archive.size(), 2 * kChunk);

  CheckpointMeta meta;
  meta.covered_sequence = image->covered_sequence;
  meta.total_bytes = archive.size();
  meta.archive_crc32c = crc32c::Value(archive);
  for (const auto& [name, contents] : image->files) {
    CheckpointMeta::File file;
    file.name = name;
    file.size = contents.size();
    meta.files.push_back(std::move(file));
  }

  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  constexpr uint64_t kNever = ~0ull;

  // One scripted serve: stream from `start`, dropping the connection
  // once `cut_at` archive bytes have been served; when `corrupt_at`
  // falls inside a chunk its byte is flipped — with the chunk CRC either
  // still describing the original bytes (the per-chunk check catches it)
  // or forged over the corrupted bytes (only the archive CRC can).
  auto serve = [&](uint64_t start, uint64_t cut_at, uint64_t corrupt_at,
                   bool forge_chunk_crc) {
    auto socket = listener->Accept();
    ASSERT_TRUE(socket.ok()) << socket.status().ToString();
    ASSERT_TRUE(socket->SetTimeouts(2000, 2000).ok());
    CheckpointMeta out = meta;
    out.start_offset = start;
    ASSERT_TRUE(WriteFrame(&*socket, FrameType::kCheckpointMeta,
                           EncodeCheckpointMeta(out))
                    .ok());
    uint64_t offset = start;
    while (offset < archive.size()) {
      if (offset >= cut_at) {
        socket->ShutdownBoth();
        return;
      }
      CheckpointChunk chunk;
      chunk.offset = offset;
      chunk.data = archive.substr(
          offset, std::min<uint64_t>(kChunk, archive.size() - offset));
      chunk.crc32c = crc32c::Value(chunk.data);
      if (corrupt_at >= offset && corrupt_at < offset + chunk.data.size()) {
        chunk.data[corrupt_at - offset] ^= 0x01;
        if (forge_chunk_crc) chunk.crc32c = crc32c::Value(chunk.data);
      }
      if (!WriteFrame(&*socket, FrameType::kCheckpointChunk,
                      EncodeCheckpointChunk(chunk))
               .ok()) {
        return;
      }
      offset += chunk.data.size();
      if (!ReadFrame(&*socket, kDefaultMaxFrameBytes).ok()) return;
    }
  };

  auto receive = [&](ReseedProgress* progress,
                     TemporalQueryService::CheckpointImage* out) -> Status {
    auto socket = Socket::Connect("127.0.0.1", listener->port(), 2000);
    if (!socket.ok()) return socket.status();
    Status set = socket->SetTimeouts(2000, 2000);
    if (!set.ok()) return set;
    return ReceiveCheckpointStream(&*socket, kDefaultMaxFrameBytes, progress,
                                   out);
  };

  auto complete_from = [&](ReseedProgress* progress,
                           TemporalQueryService::CheckpointImage* out) {
    std::thread leader_thread(
        [&, start = progress->valid ? progress->buffer.size() : 0] {
          serve(start, kNever, kNever, false);
        });
    Status done = receive(progress, out);
    leader_thread.join();
    ASSERT_TRUE(done.ok()) << done.ToString();
    ASSERT_EQ(BuildCheckpointArchive(*out), archive);
    ASSERT_EQ(out->covered_sequence, image->covered_sequence);
  };

  // Cut at every chunk boundary: the attempt fails, nothing partial is
  // handed back, the verified prefix survives, and a resumed stream
  // finishes the job.
  for (uint64_t cut = 0; cut < archive.size(); cut += kChunk) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    ReseedProgress progress;
    TemporalQueryService::CheckpointImage got;
    std::thread leader_thread([&] { serve(0, cut, kNever, false); });
    Status torn = receive(&progress, &got);
    leader_thread.join();
    EXPECT_FALSE(torn.ok());
    EXPECT_TRUE(got.files.empty());
    EXPECT_EQ(progress.buffer.size(), cut);
    complete_from(&progress, &got);
  }

  // Corrupt every byte of the final chunk: the per-chunk CRC rejects it
  // without extending the verified prefix, and a resume completes.
  uint64_t last_chunk_start = ((archive.size() - 1) / kChunk) * kChunk;
  for (uint64_t at = last_chunk_start; at < archive.size(); ++at) {
    SCOPED_TRACE("corrupt byte " + std::to_string(at));
    ReseedProgress progress;
    TemporalQueryService::CheckpointImage got;
    std::thread leader_thread([&] { serve(0, kNever, at, false); });
    Status corrupt = receive(&progress, &got);
    leader_thread.join();
    EXPECT_TRUE(corrupt.IsCorruption()) << corrupt.ToString();
    EXPECT_TRUE(got.files.empty());
    EXPECT_EQ(progress.buffer.size(), last_chunk_start);
    complete_from(&progress, &got);
  }

  // Forged chunk CRC over corrupted bytes: only the whole-archive CRC
  // catches it, and then nothing in the buffer can be trusted — the
  // progress resets and the next attempt restarts from zero.
  {
    ReseedProgress progress;
    TemporalQueryService::CheckpointImage got;
    std::thread leader_thread(
        [&] { serve(0, kNever, archive.size() / 2, true); });
    Status corrupt = receive(&progress, &got);
    leader_thread.join();
    EXPECT_TRUE(corrupt.IsCorruption()) << corrupt.ToString();
    EXPECT_TRUE(got.files.empty());
    EXPECT_FALSE(progress.valid);
    EXPECT_EQ(progress.buffer.size(), 0u);
    complete_from(&progress, &got);

    // The cleanly received image installs into a blank node and answers
    // the oracle battery exactly like the source service.
    auto blank =
        TemporalQueryService::Create(DurableOptions(TempDir("torn_dst")));
    ASSERT_TRUE(blank.ok());
    Status installed = (*blank)->InstallCheckpoint(got);
    ASSERT_TRUE(installed.ok()) << installed.ToString();
    EXPECT_EQ(AnswersOf(blank->get(), 3), AnswersOf(service->get(), 3));
    EXPECT_EQ((*blank)->applied_sequence(), image->covered_sequence);
  }
}

TEST(ReplicationTest, FollowerRestartResumesFromOwnWal) {
  auto leader = StartLeader(TempDir("resume_leader"));
  ASSERT_NE(leader, nullptr);
  std::string follower_dir = TempDir("resume_f1");
  for (int day = 1; day <= 3; ++day) leader->Put(day);
  {
    auto follower = StartFollower(follower_dir, leader->port(), "f1",
                                  /*with_server=*/false);
    ASSERT_NE(follower, nullptr);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));
  }  // follower process "dies"

  for (int day = 4; day <= 6; ++day) leader->Put(day);

  // The restart resumes from its own recovered WAL floor (sequence 3, in
  // the leader's numbering) — no separate cursor file to lose. The floor is
  // read before the applier starts: once it runs, it may already have
  // caught up.
  auto reopened = OpenFollower(follower_dir);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->service->applied_sequence(), 3u);
  auto follower = StartFollower(std::move(reopened), leader->port(), "f1",
                                /*with_server=*/false);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), 6));
  EXPECT_EQ(AnswersOf(follower->service.get(), 6),
            AnswersOf(leader->service.get(), 6));
  EXPECT_GE(follower->applier->GetState().reconnects, 1u);
}

// ------------------------------------------------- serving / routing --

TEST(ReplicationTest, FollowerRejectsWritesWithLeaderAddress) {
  auto leader = StartLeader(TempDir("ro_leader"));
  ASSERT_NE(leader, nullptr);
  auto follower = StartFollower(TempDir("ro_f1"), leader->port(), "f1");
  ASSERT_NE(follower, nullptr);

  auto client = TxmlClient::Connect("127.0.0.1", follower->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  PutRequest put;
  put.url = "u";
  put.xml_text = GuideXml(1);
  put.timestamp = Day(1);
  auto response = client->Execute(put);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsReadOnly()) << response.status().ToString();
  EXPECT_NE(response.status().message().find(
                "127.0.0.1:" + std::to_string(leader->port())),
            std::string::npos)
      << response.status().ToString();
}

TEST(ReplicationTest, ReadYourWritesThroughRoutingClient) {
  auto leader = StartLeader(TempDir("ryw_leader"));
  ASSERT_NE(leader, nullptr);
  auto f1 = StartFollower(TempDir("ryw_f1"), leader->port(), "f1");
  ASSERT_NE(f1, nullptr);
  auto f2 = StartFollower(TempDir("ryw_f2"), leader->port(), "f2");
  ASSERT_NE(f2, nullptr);

  RoutingClient client({"127.0.0.1", leader->port()},
                       {{"127.0.0.1", f1->port()}, {"127.0.0.1", f2->port()}});

  // Interleave writes and reads: every read must see the write that
  // immediately preceded it, whichever follower serves it. Without the
  // min_sequence token this races follower apply and flakes; with it a
  // stale read is impossible by construction — the follower either waits
  // past the write's sequence or the client reroutes.
  for (int day = 1; day <= 6; ++day) {
    PutRequest put;
    put.url = "u";
    put.xml_text = GuideXml(day);
    put.timestamp = Day(day);
    auto wrote = client.Execute(put);
    ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
    ASSERT_EQ(wrote->sequence, static_cast<uint64_t>(day));

    QueryRequest query;
    query.query_text = "SELECT COUNT(R) FROM doc(\"u\")[" + DayStr(day) +
                       "]/guide/item R";
    query.pretty = false;
    auto read = client.Execute(query);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_NE(read->payload.find(">" + std::to_string(day) + "<"),
              std::string::npos)
        << "day " << day << " read: " << read->payload;
    // The follower's answer reports its own applied floor ≥ the write.
    EXPECT_GE(read->sequence, wrote->sequence);
  }
  EXPECT_EQ(client.last_write_sequence(), 6u);
}

TEST(ReplicationTest, LaggingFollowerAnswersUnavailableOnMinSequence) {
  auto leader = StartLeader(TempDir("lag_leader"));
  ASSERT_NE(leader, nullptr);
  auto follower = StartFollower(TempDir("lag_f1"), leader->port(), "f1");
  ASSERT_NE(follower, nullptr);

  auto client = TxmlClient::Connect("127.0.0.1", follower->port());
  ASSERT_TRUE(client.ok());
  QueryRequest query;
  query.query_text = "SELECT COUNT(R) FROM doc(\"u\")[EVERY]/guide R";
  // A floor the leader has never committed: the bounded wait (200ms in
  // this suite's options) must elapse and report retryable lag, never a
  // silently stale answer.
  query.min_sequence = 1000;
  auto response = client->Execute(query);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();
  EXPECT_NE(response.status().message().find("replica lag"),
            std::string::npos)
      << response.status().ToString();
}

TEST(ReplicationTest, RoutingClientFallsBackPastDeadFollower) {
  auto leader = StartLeader(TempDir("fb_leader"));
  ASSERT_NE(leader, nullptr);
  auto follower = StartFollower(TempDir("fb_f1"), leader->port(), "f1");
  ASSERT_NE(follower, nullptr);
  uint16_t dead_port = follower->port();

  PutRequest put;
  put.url = "u";
  put.xml_text = GuideXml(2);
  put.timestamp = Day(1);

  RoutingClient client({"127.0.0.1", leader->port()},
                       {{"127.0.0.1", dead_port}});
  ASSERT_TRUE(client.Execute(put).ok());

  QueryRequest query;
  query.query_text =
      "SELECT COUNT(R) FROM doc(\"u\")[" + DayStr(1) + "]/guide/item R";
  query.pretty = false;

  // While the follower is up, the routed read converges through it.
  auto read = client.Execute(query);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_NE(read->payload.find(">2<"), std::string::npos) << read->payload;

  // Kill the only follower: the same read falls back to the leader
  // instead of failing.
  follower->applier->Stop();
  follower->server->Stop();
  read = client.Execute(query);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_NE(read->payload.find(">2<"), std::string::npos) << read->payload;
}

TEST(ReplicationTest, LeaderStatsReportFollowerLag) {
  auto leader = StartLeader(TempDir("stats_leader"));
  ASSERT_NE(leader, nullptr);
  auto follower = StartFollower(TempDir("stats_f1"), leader->port(), "lagstat");
  ASSERT_NE(follower, nullptr);
  for (int day = 1; day <= 3; ++day) leader->Put(day);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));

  // The next heartbeat ack refreshes the leader's view of the follower.
  bool caught_up = false;
  for (int i = 0; i < 500 && !caught_up; ++i) {
    for (const auto& state : leader->shipper->Followers()) {
      caught_up |= state.name == "lagstat" && state.acked_sequence == 3;
    }
    if (!caught_up) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(caught_up);
  std::string xml = leader->shipper->StatsElement()->ToString();
  EXPECT_NE(xml.find("name=\"lagstat\""), std::string::npos) << xml;
  EXPECT_NE(xml.find("acked-sequence=\"3\""), std::string::npos) << xml;

  ServiceStats stats = leader->service->Stats();
  EXPECT_EQ(stats.replication.last_committed_sequence, 3u);
  ServiceStats follower_stats = follower->service->Stats();
  EXPECT_EQ(follower_stats.replication.replicated_records_applied, 3u);
  EXPECT_EQ(follower_stats.replication.replicated_records_skipped, 0u);
}

TEST(ReplicationTest, ReconnectingFollowerKeepsOneStatsRow) {
  // A named follower that reconnects keeps one row on the leader: the row
  // is reused (connected again) and its counters keep accumulating.
  auto leader = StartLeader(TempDir("reconnect_leader"));
  ASSERT_NE(leader, nullptr);
  const std::string follower_dir = TempDir("reconnect_f1");
  uint64_t batches_before = 0;
  for (int day = 1; day <= 3; ++day) {
    auto follower = StartFollower(follower_dir, leader->port(), "again",
                                  /*with_server=*/false);
    ASSERT_NE(follower, nullptr);
    leader->Put(day);
    ASSERT_TRUE(AwaitSequence(follower->service.get(),
                              static_cast<uint64_t>(day)));
    // The ack that follows the apply credits the batch to the row.
    uint64_t batches = 0;
    bool connected = false;
    for (int i = 0; i < 500 && (batches <= batches_before || !connected);
         ++i) {
      for (const auto& state : leader->shipper->Followers()) {
        if (state.name != "again") continue;
        batches = state.batches_sent;
        connected = state.connected;
      }
      if (batches <= batches_before || !connected) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_GT(batches, batches_before) << "connection " << day;
    EXPECT_TRUE(connected) << "connection " << day;
    batches_before = batches;
  }  // each follower disconnects at the end of its round

  size_t rows = 0;
  for (const auto& state : leader->shipper->Followers()) {
    rows += state.name == "again" ? 1 : 0;
  }
  EXPECT_EQ(rows, 1u);
  const std::string xml = leader->shipper->StatsElement()->ToString();
  EXPECT_EQ(xml.find("name=\"again\""), xml.rfind("name=\"again\"")) << xml;
  EXPECT_NE(xml.find("batches-sent=\"" + std::to_string(batches_before) +
                     "\""),
            std::string::npos)
      << xml;
}

TEST(ReplicationTest, LeaderStatsWithoutFollowersWriteOpenCloseElement) {
  // Before any follower subscribes, the stats frame carries the followers
  // element as "<followers></followers>", never the self-closing form.
  auto leader = StartLeader(TempDir("nofollower_leader"));
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->shipper->StatsElement()->ToString(),
            "<followers></followers>");

  auto client = TxmlClient::Connect("127.0.0.1", leader->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client->Stats();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string tail = "<followers></followers></stats>";
  ASSERT_GE(response->payload.size(), tail.size()) << response->payload;
  EXPECT_EQ(response->payload.substr(response->payload.size() - tail.size()),
            tail)
      << response->payload;
  EXPECT_TRUE(ParseXml(response->payload).ok()) << response->payload;
}

TEST(ReplicationTest, LeaderStatsEscapeFollowerNames) {
  // A follower names itself over the wire; the leader's stats frame must
  // escape that name and stay well-formed XML.
  auto leader = StartLeader(TempDir("escape_leader"));
  ASSERT_NE(leader, nullptr);
  const std::string name = "f<&\"1";
  auto follower = StartFollower(TempDir("escape_f1"), leader->port(), name);
  ASSERT_NE(follower, nullptr);
  leader->Put(1);
  ASSERT_TRUE(AwaitSequence(follower->service.get(), 1));

  auto client = TxmlClient::Connect("127.0.0.1", leader->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client->Stats();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("name=\"f&lt;&amp;&quot;1\""),
            std::string::npos)
      << response->payload;
  auto parsed = ParseXml(response->payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const XmlNode* followers = parsed->root()->FindChildElement("followers");
  ASSERT_NE(followers, nullptr) << response->payload;
  const XmlNode* row = followers->FindChildElement("follower");
  ASSERT_NE(row, nullptr) << response->payload;
  const XmlNode* parsed_name = row->FindAttribute("name");
  ASSERT_NE(parsed_name, nullptr) << response->payload;
  EXPECT_EQ(parsed_name->value(), name);
}

TEST(ReplicationTest, FollowerMatchesLeaderUnderConcurrentWriters) {
  // Concurrent leader writers exercise the sharded commit path + group
  // commit while a follower tails the stream. The follower must end up
  // byte-identical — same per-document histories, same WAL record bytes —
  // and must never have received a sequence the leader had not made
  // durable (the tail ring is fed post-fsync, so its stream IS the
  // durable prefix; equality of the replayed logs proves no divergence).
  std::string leader_dir = TempDir("conc_leader");
  std::string follower_dir = TempDir("conc_f1");
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 15;
  {
    auto leader = StartLeader(leader_dir);
    ASSERT_NE(leader, nullptr);
    auto follower = StartFollower(follower_dir, leader->port(), "f1",
                                  /*with_server=*/false);
    ASSERT_NE(follower, nullptr);

    std::atomic<bool> failed{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&leader, &failed, w] {
        std::string url = "w";
        url += std::to_string(w);
        for (int i = 1; i <= kCommitsPerWriter; ++i) {
          auto put = leader->service->Put(url, GuideXml(i));
          if (!put.ok()) {
            failed.store(true);
            ADD_FAILURE() << put.status().ToString();
            return;
          }
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    ASSERT_FALSE(failed.load());

    uint64_t leader_head = leader->service->applied_sequence();
    ASSERT_TRUE(AwaitSequence(follower->service.get(), leader_head));
    // The follower can never run ahead of the leader's durable log.
    EXPECT_LE(follower->service->applied_sequence(), leader_head);

    for (int w = 0; w < kWriters; ++w) {
      std::string url = "w" + std::to_string(w);
      for (const std::string& query :
           {"SELECT TIME(R), R/price FROM doc(\"" + url +
                "\")[EVERY]/guide/item R",
            "SELECT COUNT(R) FROM doc(\"" + url + "\")[NOW]/guide/item R"}) {
        auto on_leader = RunQuery(leader->service.get(), query);
        auto on_follower = RunQuery(follower->service.get(), query);
        ASSERT_TRUE(on_leader.ok()) << on_leader.status().ToString();
        ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
        EXPECT_EQ(*on_leader, *on_follower) << query;
      }
    }
  }

  // Byte-level: both logs replay to the same records in the same order
  // (the follower persists the leader's record bodies verbatim).
  auto leader_log = WriteAheadLog::Replay(leader_dir + "/" + kWalFileName);
  auto follower_log =
      WriteAheadLog::Replay(follower_dir + "/" + kWalFileName);
  ASSERT_TRUE(leader_log.ok()) << leader_log.status().ToString();
  ASSERT_TRUE(follower_log.ok()) << follower_log.status().ToString();
  ASSERT_EQ(leader_log->records.size(), follower_log->records.size());
  ASSERT_EQ(leader_log->records.size(),
            static_cast<size_t>(kWriters * kCommitsPerWriter));
  for (size_t i = 0; i < leader_log->records.size(); ++i) {
    const WalRecord& ours = leader_log->records[i];
    const WalRecord& theirs = follower_log->records[i];
    EXPECT_EQ(EncodeWalRecordBody(ours, ours.sequence),
              EncodeWalRecordBody(theirs, theirs.sequence))
        << "record " << i << " diverged";
  }
}

#if defined(TXML_FAILPOINTS)

// ------------------------------------- follower crash/restart sweep --

/// Discovers every WAL boundary the *follower's* apply path hits, then
/// for each one: replicate afresh with a fault armed there, let the
/// fault fire (the applier's session dies; its WAL may be poisoned),
/// kill the follower, restart it from the same directory, and require
/// full convergence to byte-identical oracle answers.
TEST(ReplicationCrashSweepTest, FollowerSurvivesFaultAtEveryWalBoundary) {
  FailPoints::Global().DisarmAll();
  FailPoints::Global().ClearTrace();

  // Discovery pass: trace the sites a clean replication run touches,
  // keeping only those whose armed fault would hit the follower (its
  // directory name filters the leader's own WAL traffic out later).
  std::vector<std::string> sites;
  {
    auto leader = StartLeader(TempDir("sweep_trace_leader"));
    ASSERT_NE(leader, nullptr);
    for (int day = 1; day <= 3; ++day) leader->Put(day);
    std::string follower_dir = TempDir("sweep_trace_f");
    FailPoints::Global().ClearTrace();
    auto follower = StartFollower(follower_dir, leader->port(), "trace",
                                  /*with_server=*/false);
    ASSERT_NE(follower, nullptr);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));
    for (const auto& traced : FailPoints::Global().Trace()) {
      const std::string& site = traced.first;
      if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
        sites.push_back(site);
      }
    }
  }
  ASSERT_FALSE(sites.empty());

  int variant = 0;
  for (const std::string& site : sites) {
    SCOPED_TRACE("site " + site);
    auto leader =
        StartLeader(TempDir("sweep_leader_" + std::to_string(variant)));
    ASSERT_NE(leader, nullptr);
    for (int day = 1; day <= 4; ++day) leader->Put(day);

    std::string follower_dir = TempDir("sweep_f_" + std::to_string(variant));
    ++variant;

    // A follower start that tolerates the armed fault firing during
    // service creation/recovery (that too models a crash at this site).
    auto try_start = [&]() -> std::unique_ptr<Follower> {
      auto follower = std::make_unique<Follower>();
      auto service = TemporalQueryService::Create(DurableOptions(follower_dir));
      if (!service.ok()) return nullptr;
      follower->service = std::move(*service);
      follower->applier = std::make_unique<ReplicaApplier>(
          follower->service.get(),
          FastApplierOptions(leader->port(), "sweep"));
      if (!follower->applier->Start().ok()) return nullptr;
      return follower;
    };

    // The filter pins the fault to the follower's own files — the armed
    // site must not trip the leader mid-test.
    FailPointSpec spec;
    spec.path_substr = std::filesystem::path(follower_dir).filename().string();
    FailPoints::Global().DisarmAll();
    FailPoints::Global().Arm(site, spec);
    uint64_t fired_before = FailPoints::Global().fired_count();

    {
      auto follower = try_start();
      // Either the fault fires (the interesting case) or this site never
      // triggers on the apply path with this filter — wait briefly, then
      // move on either way; convergence is still asserted below.
      for (int i = 0; follower && i < 300; ++i) {
        if (FailPoints::Global().fired_count() > fired_before) break;
        if (follower->service->applied_sequence() >= 4) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }  // kill the follower at (or right after) the fault

    FailPoints::Global().DisarmAll();
    // Restart from the same directory: recovery replays the follower's
    // own WAL prefix, the applier resumes from that floor.
    auto follower = try_start();
    ASSERT_NE(follower, nullptr);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 4));
    EXPECT_EQ(AnswersOf(follower->service.get(), 4),
              AnswersOf(leader->service.get(), 4));
  }
  FailPoints::Global().DisarmAll();
}

/// Re-seed chaos sweep (DESIGN.md §14): a blank follower of a leader
/// whose log starts past 0 must stream + install the leader's checkpoint
/// — with a fault injected at every transfer/install/WAL-reset boundary
/// the re-seed path hits, the follower killed there and restarted; plus
/// the leader killed mid-stream (its serve drops the connection), where
/// the follower must resume the transfer on its own. Every variant must
/// converge to byte-identical oracle answers with no operator action.
TEST(ReplicationCrashSweepTest, FollowerSurvivesFaultAtEveryReseedBoundary) {
  FailPoints::Global().DisarmAll();
  FailPoints::Global().ClearTrace();

  // Discovery pass: trace the env sites a clean re-seed touches on the
  // follower's directory.
  std::vector<std::string> sites;
  {
    auto leader = StartLeader(CheckpointedLeaderDir("rsweep_trace_leader", 3));
    ASSERT_NE(leader, nullptr);
    std::string follower_dir = TempDir("rsweep_trace_f");
    FailPoints::Global().ClearTrace();
    auto follower = StartFollower(follower_dir, leader->port(), "trace",
                                  /*with_server=*/false);
    ASSERT_NE(follower, nullptr);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));
    ASSERT_GE(follower->applier->GetState().reseeds, 1u);
    for (const auto& traced : FailPoints::Global().Trace()) {
      const std::string& site = traced.first;
      if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
        sites.push_back(site);
      }
    }
  }
  ASSERT_FALSE(sites.empty());
  // The leader-kill boundary is not an env site; sweep it explicitly.
  sites.push_back("reseed.serve.chunk");

  int variant = 0;
  for (const std::string& site : sites) {
    SCOPED_TRACE("site " + site);
    auto leader = StartLeader(
        CheckpointedLeaderDir("rsweep_leader_" + std::to_string(variant), 3));
    ASSERT_NE(leader, nullptr);
    std::string follower_dir = TempDir("rsweep_f_" + std::to_string(variant));
    ++variant;

    auto try_start = [&]() -> std::unique_ptr<Follower> {
      auto follower = std::make_unique<Follower>();
      auto service = TemporalQueryService::Create(DurableOptions(follower_dir));
      if (!service.ok()) return nullptr;
      follower->service = std::move(*service);
      follower->applier = std::make_unique<ReplicaApplier>(
          follower->service.get(),
          FastApplierOptions(leader->port(), "rsweep"));
      if (!follower->applier->Start().ok()) return nullptr;
      return follower;
    };

    FailPointSpec spec;
    // Pin env faults to the follower's own files; the serve-side kill
    // fires on the follower's name (its detail string).
    spec.path_substr =
        site == "reseed.serve.chunk"
            ? "rsweep"
            : std::filesystem::path(follower_dir).filename().string();
    FailPoints::Global().DisarmAll();
    FailPoints::Global().Arm(site, spec);
    uint64_t fired_before = FailPoints::Global().fired_count();

    if (site == "reseed.serve.chunk") {
      // Leader dies mid-stream: the serve side drops the connection
      // partway through the archive. The follower is NOT restarted — it
      // must retry and resume the transfer from its verified prefix.
      auto follower = try_start();
      ASSERT_NE(follower, nullptr);
      ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));
      EXPECT_GT(FailPoints::Global().fired_count(), fired_before);
      FailPoints::Global().DisarmAll();
      leader->Put(4);
      ASSERT_TRUE(AwaitSequence(follower->service.get(), 4));
      EXPECT_EQ(AnswersOf(follower->service.get(), 4),
                AnswersOf(leader->service.get(), 4));
      continue;
    }

    {
      auto follower = try_start();
      // Wait for the fault to fire (or for the site to prove irrelevant
      // to this path — convergence is still asserted below either way).
      for (int i = 0; follower && i < 300; ++i) {
        if (FailPoints::Global().fired_count() > fired_before) break;
        if (follower->service->applied_sequence() >= 3) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }  // kill the follower at (or right after) the fault

    FailPoints::Global().DisarmAll();
    // Restart from the same directory: whatever install window the fault
    // left behind — data files without a stamp, a stamp without the WAL
    // reset — recovery plus a fresh re-seed must converge.
    auto follower = try_start();
    ASSERT_NE(follower, nullptr);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 3));
    leader->Put(4);
    ASSERT_TRUE(AwaitSequence(follower->service.get(), 4));
    EXPECT_EQ(AnswersOf(follower->service.get(), 4),
              AnswersOf(leader->service.get(), 4));
  }
  FailPoints::Global().DisarmAll();
}

#endif  // TXML_FAILPOINTS

}  // namespace
}  // namespace txml

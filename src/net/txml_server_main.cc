// txml_server — the network front end as a process: serves a
// TemporalQueryService over TCP (src/net/, DESIGN.md §7).
//
//   txml_server [--port=N] [--threads=N] [--data-dir=DIR] [--sync-mode=M]
//               [--commit-shards=N] [--rate-limit=R[:BURST]]
//               [--fti-compact-min=N] [--db=DIR] [--seed-demo]
//               [--replica-of=HOST:PORT] [--read-only]
//               [--reseed=on|off] [--reseed-chunk-bytes=N]
//
//   --port=N       bind 127.0.0.1:N (default 7400; 0 = ephemeral, printed)
//   --threads=N    connection-handler threads (0 or omitted = server default)
//   --data-dir=DIR durable operation (DESIGN.md §9): recover from DIR on
//                  start (checkpoint + WAL replay), write-ahead-log every
//                  commit, checkpoint automatically. Also enables serving
//                  replication subscribers (DESIGN.md §11)
//   --sync-mode=M  WAL fsync policy: none | every_n | always (default
//                  always); only meaningful with --data-dir
//   --commit-shards=N
//                  commit-path lock stripes (DESIGN.md §12): commits to
//                  documents on different shards overlap their WAL waits
//                  (default 16)
//   --rate-limit=R[:BURST]
//                  per-client admission control: each peer IP gets a token
//                  bucket refilled at R requests/second with capacity
//                  BURST (default R); throttled requests get a retryable
//                  kUnavailable. Omitted = no rate limiting
//   --fti-compact-min=N
//                  fold the full-text index differential into the
//                  compacted main index once it holds N postings
//                  (DESIGN.md §13; default 4096, 0 = only fold when a
//                  vacuum forces it)
//   --db=DIR       open a persisted database snapshot read-write but
//                  WITHOUT a WAL (legacy; changes are not persisted back).
//                  Mutually exclusive with --data-dir
//   --seed-demo    load a small restaurant-guide history (handy for trying
//                  txml_client without a data directory)
//   --replica-of=HOST:PORT
//                  follower mode (requires --data-dir): replicate the WAL
//                  from the leader at HOST:PORT into this node's own
//                  data_dir and serve reads; writes are rejected with the
//                  typed read-only status naming the leader
//   --read-only    reject writes without being a follower (a frozen serving
//                  copy); implied by --replica-of
//   --reseed=on|off
//                  checkpoint re-seed (DESIGN.md §14; default on): a
//                  durable server serves checkpoint transfers to
//                  below-floor followers. Off refuses them, so such a
//                  follower parks and re-probes on a slow timer (the
//                  operator copies a checkpoint by hand). A follower
//                  (--replica-of) always asks its leader for a re-seed
//                  once the leader's log has moved past its cursor
//   --reseed-chunk-bytes=N
//                  archive bytes per checkpoint chunk frame when serving
//                  re-seeds (default 1 MiB)
//
// Runs until SIGINT/SIGTERM, then shuts down gracefully (in-flight
// queries finish and their responses are sent).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <errno.h>
#include <unistd.h>

#include "src/net/cli_flags.h"
#include "src/net/server.h"
#include "src/repl/replica_applier.h"
#include "src/repl/wal_shipper.h"
#include "src/service/service.h"

namespace {

// Shutdown signalling. The previous implementation released a
// std::binary_semaphore from the handler; semaphore release is NOT on
// POSIX's async-signal-safe list (it may lock a futex mutex internally),
// so a signal landing at the wrong moment could deadlock or corrupt state.
// The handler now only sets a sig_atomic_t flag and write()s one byte to a
// self-pipe — both async-signal-safe — and main blocks in read().
volatile std::sig_atomic_t g_signal = 0;
int g_wake_fds[2] = {-1, -1};

void HandleSignal(int signum) {
  g_signal = signum;
  // Wake the main thread. EAGAIN (pipe full) is fine: a byte is already
  // pending, so main wakes regardless. errno is preserved for the
  // interrupted code.
  int saved_errno = errno;
  unsigned char byte = 1;
  ssize_t ignored = write(g_wake_fds[1], &byte, 1);
  (void)ignored;
  errno = saved_errno;
}

void AwaitShutdownSignal() {
  unsigned char byte;
  while (true) {
    ssize_t n = read(g_wake_fds[0], &byte, 1);
    if (n == 1) return;
    if (n < 0 && errno == EINTR) {
      // A signal interrupted the read itself; the flag says which.
      if (g_signal != 0) return;
      continue;
    }
    if (n == 0) return;  // pipe closed — treat as shutdown
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: txml_server [--port=N] [--threads=N] "
               "[--data-dir=DIR] [--sync-mode=none|every_n|always] "
               "[--commit-shards=N] [--rate-limit=R[:BURST]] "
               "[--fti-compact-min=N] [--db=DIR] [--seed-demo] "
               "[--replica-of=HOST:PORT] [--read-only] "
               "[--reseed=on|off] [--reseed-chunk-bytes=N]\n");
  return 2;
}

int FlagError(const txml::Status& status) {
  std::fprintf(stderr, "txml_server: %s\n", status.message().c_str());
  return Usage();
}

void SeedDemo(txml::TemporalQueryService* service) {
  const char* versions[] = {
      "<guide><restaurant><name>Napoli</name><price>30</price></restaurant>"
      "</guide>",
      "<guide><restaurant><name>Napoli</name><price>35</price></restaurant>"
      "<restaurant><name>Sorrento</name><price>28</price></restaurant>"
      "</guide>",
      "<guide><restaurant><name>Napoli</name><price>38</price></restaurant>"
      "<restaurant><name>Sorrento</name><price>28</price></restaurant>"
      "</guide>",
  };
  int day = 1;
  for (const char* xml : versions) {
    txml::PutRequest put;
    put.url = "guide";
    put.xml_text = xml;
    put.timestamp = txml::Timestamp::FromDate(2001, 1, day++);
    auto result = service->Execute(put);
    if (!result.ok()) {
      std::fprintf(stderr, "seed-demo put failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  std::fprintf(stderr,
               "seeded doc(\"guide\") with 3 versions (01-03/01/2001)\n");
}

}  // namespace

int main(int argc, char** argv) {
  txml::ServerOptions server_options;
  server_options.port = 7400;
  std::string db_dir;
  std::string data_dir;
  txml::WalSyncMode sync_mode = txml::WalSyncMode::kAlways;
  size_t commit_shards = 0;  // 0 = keep the ServiceOptions default
  size_t fti_compact_min = 0;
  bool fti_compact_min_set = false;
  bool seed_demo = false;
  bool read_only = false;
  bool reseed = true;
  size_t reseed_chunk_bytes = 0;  // 0 = keep the WalShipper default
  std::string replica_of;
  std::string leader_host;
  uint16_t leader_port = 0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (txml::ParseFlagValue(argv[i], "--port", &value)) {
      auto parsed = txml::ParsePortFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      server_options.port = *parsed;
    } else if (txml::ParseFlagValue(argv[i], "--threads", &value)) {
      auto parsed = txml::ParseSizeFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      server_options.connection_threads = *parsed;
    } else if (txml::ParseFlagValue(argv[i], "--data-dir", &value)) {
      data_dir = value;
    } else if (txml::ParseFlagValue(argv[i], "--sync-mode", &value)) {
      auto parsed = txml::ParseSyncModeFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      sync_mode = *parsed;
    } else if (txml::ParseFlagValue(argv[i], "--commit-shards", &value)) {
      auto parsed = txml::ParseSizeFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      if (*parsed == 0) {
        std::fprintf(stderr, "txml_server: --commit-shards must be > 0\n");
        return Usage();
      }
      commit_shards = *parsed;
    } else if (txml::ParseFlagValue(argv[i], "--rate-limit", &value)) {
      // R or R:BURST, both positive numbers.
      std::string rate = value, burst;
      if (size_t colon = value.find(':'); colon != std::string::npos) {
        rate = value.substr(0, colon);
        burst = value.substr(colon + 1);
      }
      char* end = nullptr;
      server_options.rate_limit_per_sec = std::strtod(rate.c_str(), &end);
      if (end == rate.c_str() || *end != '\0' ||
          server_options.rate_limit_per_sec <= 0) {
        std::fprintf(stderr, "txml_server: bad --rate-limit value '%s'\n",
                     value.c_str());
        return Usage();
      }
      if (!burst.empty()) {
        server_options.rate_limit_burst = std::strtod(burst.c_str(), &end);
        if (end == burst.c_str() || *end != '\0' ||
            server_options.rate_limit_burst <= 0) {
          std::fprintf(stderr, "txml_server: bad --rate-limit burst '%s'\n",
                       value.c_str());
          return Usage();
        }
      }
    } else if (txml::ParseFlagValue(argv[i], "--fti-compact-min", &value)) {
      auto parsed = txml::ParseSizeFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      fti_compact_min = *parsed;
      fti_compact_min_set = true;
    } else if (txml::ParseFlagValue(argv[i], "--db", &value)) {
      db_dir = value;
    } else if (txml::ParseFlagValue(argv[i], "--replica-of", &value)) {
      auto parsed = txml::ParseHostPortFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      replica_of = value;
      leader_host = parsed->first;
      leader_port = parsed->second;
    } else if (std::strcmp(argv[i], "--read-only") == 0) {
      read_only = true;
    } else if (txml::ParseFlagValue(argv[i], "--reseed", &value)) {
      if (value == "on") {
        reseed = true;
      } else if (value == "off") {
        reseed = false;
      } else {
        std::fprintf(stderr,
                     "txml_server: --reseed takes 'on' or 'off', got '%s'\n",
                     value.c_str());
        return Usage();
      }
    } else if (txml::ParseFlagValue(argv[i], "--reseed-chunk-bytes", &value)) {
      auto parsed = txml::ParseSizeFlag(value);
      if (!parsed.ok()) return FlagError(parsed.status());
      if (*parsed == 0) {
        std::fprintf(stderr,
                     "txml_server: --reseed-chunk-bytes must be > 0\n");
        return Usage();
      }
      reseed_chunk_bytes = *parsed;
    } else if (std::strcmp(argv[i], "--seed-demo") == 0) {
      seed_demo = true;
    } else {
      return Usage();
    }
  }
  if (!replica_of.empty() && data_dir.empty()) {
    std::fprintf(stderr,
                 "txml_server: --replica-of needs --data-dir (the follower "
                 "persists the replicated WAL into its own directory)\n");
    return Usage();
  }
  if (!replica_of.empty() && seed_demo) {
    std::fprintf(stderr,
                 "txml_server: --seed-demo writes locally and would diverge "
                 "from the leader; seed the leader instead\n");
    return Usage();
  }
  if (!data_dir.empty() && !db_dir.empty()) {
    std::fprintf(stderr,
                 "txml_server: --data-dir and --db are mutually exclusive "
                 "(--data-dir recovers and persists; --db only loads)\n");
    return Usage();
  }

  txml::ServiceOptions service_options;
  service_options.durability.data_dir = data_dir;
  service_options.durability.wal.sync_mode = sync_mode;
  if (commit_shards != 0) service_options.commit_shards = commit_shards;
  if (fti_compact_min_set) {
    service_options.fti_compact_min_postings = fti_compact_min;
  }
  txml::StatusOr<std::unique_ptr<txml::TemporalQueryService>> service =
      [&]() -> txml::StatusOr<std::unique_ptr<txml::TemporalQueryService>> {
    if (db_dir.empty()) {
      // Covers both the in-memory and the --data-dir case; with a data
      // dir Create() runs startup recovery before returning.
      return txml::TemporalQueryService::Create(service_options);
    }
    auto db = txml::TemporalXmlDatabase::Open(db_dir);
    if (!db.ok()) return db.status();
    return txml::TemporalQueryService::Create(service_options,
                                              std::move(*db));
  }();
  if (!service.ok()) {
    std::fprintf(stderr, "cannot start service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  if (!data_dir.empty()) {
    txml::ServiceStats stats = (*service)->Stats();
    std::fprintf(
        stderr,
        "recovered from %s: %llu wal records replayed%s (sync-mode %s)\n",
        data_dir.c_str(),
        static_cast<unsigned long long>(stats.durability.recovered_records),
        stats.durability.recovery_tail_dropped ? ", torn tail dropped" : "",
        std::string(txml::WalSyncModeToString(sync_mode)).c_str());
  }
  if (seed_demo) SeedDemo(service->get());

  // Replication wiring (src/repl, DESIGN.md §11). Any durable server
  // serves WAL subscribers — being a leader costs nothing until someone
  // subscribes. --replica-of additionally runs the applier thread and
  // flips the front end read-only, pointing rejected writers at the
  // leader.
  std::unique_ptr<txml::WalShipper> shipper;
  std::unique_ptr<txml::ReplicaApplier> applier;
  if (!data_dir.empty()) {
    txml::WalShipper::Options shipper_options;
    if (reseed_chunk_bytes != 0) {
      shipper_options.checkpoint_chunk_bytes = reseed_chunk_bytes;
    }
    shipper =
        std::make_unique<txml::WalShipper>(service->get(), shipper_options);
    server_options.repl_handler =
        [&shipper](txml::Socket* socket,
                   const txml::ReplSubscribeRequest& subscribe) {
          shipper->Serve(socket, subscribe);
        };
    if (reseed) {
      server_options.checkpoint_handler =
          [&shipper](txml::Socket* socket,
                     const txml::CheckpointRequest& request) {
            shipper->ServeCheckpoint(socket, request);
          };
    }
  }
  if (!replica_of.empty()) {
    server_options.read_only = true;
    server_options.leader_hint = replica_of;
    txml::ReplicaApplier::Options applier_options;
    applier_options.leader_host = leader_host;
    applier_options.leader_port = leader_port;
    applier_options.follower_name = "txml-" + std::to_string(getpid());
    applier = std::make_unique<txml::ReplicaApplier>(service->get(),
                                                     applier_options);
  }
  if (read_only) server_options.read_only = true;
  server_options.stats_extra = [&shipper, &applier](txml::XmlNode* stats) {
    if (shipper) stats->AddChild(shipper->StatsElement());
    if (applier) stats->AddChild(applier->StatsElement());
  };

  // Install the shutdown plumbing BEFORE the server starts accepting: a
  // SIGTERM racing startup must not hit the default handler (which would
  // kill the process without draining in-flight queries).
  if (pipe(g_wake_fds) != 0) {
    std::fprintf(stderr, "cannot create shutdown pipe: %s\n",
                 std::strerror(errno));
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: read() must see EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  txml::TxmlServer server(service->get(), server_options);
  txml::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  // Report the *effective* thread count: with --threads=0 (or omitted in a
  // future default) the server resolves the default itself, and echoing
  // the raw option here would print "0 threads".
  std::fprintf(stderr, "txml_server listening on 127.0.0.1:%u (%zu threads)\n",
               server.port(), server.connection_threads());
  if (applier) {
    txml::Status applier_started = applier->Start();
    if (!applier_started.ok()) {
      std::fprintf(stderr, "cannot start replication: %s\n",
                   applier_started.ToString().c_str());
      server.Stop();
      return 1;
    }
    std::fprintf(
        stderr,
        "replication: following %s from sequence %llu (read-only; writes "
        "rejected with the leader's address)\n",
        replica_of.c_str(),
        static_cast<unsigned long long>((*service)->applied_sequence()));
  } else if (shipper) {
    std::fprintf(
        stderr,
        "replication: serving WAL subscribers (last committed sequence "
        "%llu, last checkpoint sequence %llu)\n",
        static_cast<unsigned long long>(
            (*service)->Stats().replication.last_committed_sequence),
        static_cast<unsigned long long>(
            (*service)->Stats().replication.last_checkpoint_sequence));
  }
  if (read_only && !applier) {
    std::fprintf(stderr, "read-only: rejecting writes\n");
  }

  AwaitShutdownSignal();

  std::fprintf(stderr, "shutting down (draining in-flight queries)…\n");
  if (applier) applier->Stop();
  if (shipper) shipper->Stop();
  server.Stop();
  close(g_wake_fds[0]);
  close(g_wake_fds[1]);
  txml::ServerStats stats = server.Stats();
  std::fprintf(stderr,
               "served %llu requests (%llu failed) over %llu connections\n",
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.requests_failed),
               static_cast<unsigned long long>(stats.connections_accepted));
  return 0;
}

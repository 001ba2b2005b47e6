#ifndef TXML_SRC_NET_SERVER_H_
#define TXML_SRC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/net/rate_limiter.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/service.h"
#include "src/service/thread_pool.h"
#include "src/util/synchronization.h"
#include "src/util/thread.h"
#include "src/xml/node.h"

namespace txml {

/// What ServerOptions.connection_threads == 0 resolves to at Start.
inline constexpr size_t kDefaultConnectionThreads = 8;

/// Configuration of a TxmlServer.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see
  /// TxmlServer::port(), used by tests and the CLI's startup banner).
  uint16_t port = 0;
  /// Connection-handler threads: each accepted connection occupies one
  /// pool thread for its lifetime (blocking I/O). Connections beyond
  /// this count queue in the pool until a handler frees up. 0 means "use
  /// the default" — callers report the actual count via
  /// TxmlServer::connection_threads() after Start.
  size_t connection_threads = 0;
  /// Per-connection socket deadlines. A read timeout on an idle
  /// connection closes it (the client reconnects); mid-frame timeouts are
  /// protocol errors.
  int read_timeout_ms = 30000;
  int write_timeout_ms = 30000;
  /// Largest request frame body accepted before dropping the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Slice size for streaming response payloads.
  size_t response_chunk_bytes = kDefaultResponseChunkBytes;
  /// Accepted connections waiting for a free handler thread. Beyond this
  /// the server sheds load: the connection gets a best-effort kUnavailable
  /// response and is closed (counted in ServerStats.connections_rejected)
  /// instead of queuing unboundedly behind slow handlers. 0 = unbounded
  /// (the pre-backpressure behavior).
  size_t max_pending_connections = 64;
  /// Per-peer admission rate limiting (token bucket keyed by the peer's
  /// IP address, src/net/rate_limiter.h). 0 (the default) disables it.
  /// A request arriving at an empty bucket is answered kUnavailable
  /// ("rate limited") and counted in ServerStats.requests_rate_limited;
  /// the connection stays open, so a backing-off client needs no
  /// reconnect. Replication subscriptions are exempt — throttling a
  /// follower's WAL stream would just grow its lag.
  double rate_limit_per_sec = 0;
  /// Bucket capacity (burst allowance) per peer; <= 0 defaults to
  /// rate_limit_per_sec (a one-second burst).
  double rate_limit_burst = 0;
  /// Follower mode: writes (kPutRequest / kWriteBatchRequest /
  /// kVacuumRequest) are rejected with the typed kReadOnly status instead
  /// of executing; the routing client treats that as "redirect to the
  /// leader". Reads, stats and replication subscriptions are unaffected.
  bool read_only = false;
  /// Where writes should go instead, quoted in the kReadOnly message
  /// ("host:port" of the leader). Display-only.
  std::string leader_hint;
  /// Replication hook (src/repl wires the WalShipper in here; the net
  /// layer stays ignorant of replication policy). When a kReplSubscribe
  /// frame arrives, the server hands the connection's socket and the
  /// decoded request to this callback, which runs the entire shipping
  /// conversation on the connection's handler thread and returns when the
  /// stream ends; the server then closes the connection. Unset =
  /// replication not enabled: subscribers get kInvalidArgument.
  std::function<void(Socket*, const ReplSubscribeRequest&)> repl_handler;
  /// Checkpoint re-seed hook (DESIGN.md §14), wired alongside
  /// repl_handler to WalShipper::ServeCheckpoint. When a
  /// kCheckpointRequest frame arrives, the server hands the connection's
  /// socket and the decoded request to this callback, which streams the
  /// leader's newest checkpoint on the handler thread and returns when
  /// the transfer ends; the server then closes the connection. Unset =
  /// re-seeding not served: requesters get kInvalidArgument (the refusal
  /// the applier parks on).
  std::function<void(Socket*, const CheckpointRequest&)> checkpoint_handler;
  /// Appends extra elements to the <stats> element served for
  /// kStatsRequest (the mains add shipper / applier state).
  std::function<void(XmlNode* stats)> stats_extra;
};

/// Aggregate counters of a TxmlServer (monotonic; read with Stats()).
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections shed because the handler queue was full (see
  /// ServerOptions.max_pending_connections).
  uint64_t connections_rejected = 0;
  uint64_t requests_served = 0;
  uint64_t requests_failed = 0;
  uint64_t frames_rejected = 0;
  /// Requests bounced by the per-peer token bucket (see
  /// ServerOptions.rate_limit_per_sec).
  uint64_t requests_rate_limited = 0;
  uint64_t timeouts = 0;
};

/// The network front end: a TCP server speaking the length-prefixed frame
/// protocol of src/net/wire.h, executing each connection's requests on a
/// TemporalQueryService (DESIGN.md §7).
///
/// Threading: one accept-loop thread plus a bounded ThreadPool of
/// connection handlers (blocking I/O — the connection-thread model; the
/// service itself adds no threads for synchronous execution, so total
/// parallelism is connection_threads).
///
/// Shutdown (Stop) is graceful: the listener closes (no new connections),
/// every open connection's read side is shut down so idle handlers wake
/// with EOF, and handlers finish the request they are executing — the
/// response of an in-flight query is still serialized and sent — before
/// the pool joins.
class TxmlServer {
 public:
  /// The service outlives the server and is not owned.
  TxmlServer(TemporalQueryService* service, ServerOptions options);
  ~TxmlServer();

  TxmlServer(const TxmlServer&) = delete;
  TxmlServer& operator=(const TxmlServer&) = delete;

  /// Binds, listens and starts the accept loop. Fails with the bind/listen
  /// error (e.g. kIoError for a port in use).
  Status Start();

  /// Graceful shutdown; idempotent and safe to race with itself (the
  /// destructor and a signal-driven stop may overlap — the loser of the
  /// started_ exchange returns immediately), also run by the destructor.
  void Stop() EXCLUDES(mu_);

  /// The bound port (valid after Start).
  uint16_t port() const { return listener_.port(); }

  /// The *effective* connection-handler thread count (valid after Start):
  /// the configured value, or kDefaultConnectionThreads when the options
  /// left it 0. Startup banners must print this, not the raw option.
  size_t connection_threads() const { return effective_connection_threads_; }

  ServerStats Stats() const;

 private:
  void AcceptLoop();
  /// shared_ptr because the handler thunk must be copyable (std::function)
  /// while Socket is move-only; the handler is the only lasting owner.
  void HandleConnection(std::shared_ptr<Socket> socket) EXCLUDES(mu_);
  /// Runs one decoded request frame; returns false when the connection
  /// should close (protocol error already reported to the peer).
  /// `peer` is the connection's rate-limit bucket key (peer IP).
  bool HandleFrame(Socket* socket, const Frame& frame,
                   const std::string& peer);
  /// Builds the <stats> XML document for kStatsRequest.
  QueryResponse StatsResponse();

  TemporalQueryService* service_;
  ServerOptions options_;
  size_t effective_connection_threads_ = 0;
  /// Null when rate limiting is disabled (options_.rate_limit_per_sec == 0).
  std::unique_ptr<TokenBucketRateLimiter> rate_limiter_;
  ListenSocket listener_;
  std::atomic<bool> stopping_{false};
  /// Atomic: Stop() may race with itself (destructor vs. a signal-driven
  /// stop); the exchange in Stop elects exactly one tear-down thread.
  std::atomic<bool> started_{false};

  /// Live connection sockets by id, so Stop can wake blocked reads.
  /// Handlers own their Socket; entries hold raw fds guarded by mu_.
  Mutex mu_{LockRank::kServer};
  std::unordered_map<uint64_t, Socket*> connections_ GUARDED_BY(mu_);
  uint64_t next_connection_id_ GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> timeouts_{0};

  Thread accept_thread_;
  /// Declared last: its destructor drains queued connections first.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace txml

#endif  // TXML_SRC_NET_SERVER_H_

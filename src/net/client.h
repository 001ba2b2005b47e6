#ifndef TXML_SRC_NET_CLIENT_H_
#define TXML_SRC_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/request.h"
#include "src/util/random.h"

namespace txml {

/// Configuration of a TxmlClient connection.
struct ClientOptions {
  int connect_timeout_ms = 5000;
  /// Read deadline per response *frame* — a slow large result keeps the
  /// clock fresh with every chunk that arrives.
  int read_timeout_ms = 30000;
  int write_timeout_ms = 30000;
  /// Largest response frame body accepted (the server chunks payloads, so
  /// this bounds per-frame allocations, not result size).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Opt-in retry (default off): on a retryable failure the client makes
  /// up to this many further attempts — reconnecting first when the
  /// failure closed the socket — with exponential backoff between them.
  ///
  /// Retryable is exactly: a connect failure (any code), and kUnavailable
  /// (the server shedding load, or the connection dying between
  /// requests). Nothing else — in particular kTimeout is NEVER retried:
  /// after a sent Put/Vacuum a timeout means the commit may have landed,
  /// and a blind resend would duplicate it. (Retrying kUnavailable after
  /// a sent write is at-least-once by the same argument; the server's
  /// queue-full rejection, the common source, happens before any
  /// processing.)
  int max_retries = 0;
  /// Backoff before retry n (0-based) is uniform in [d/2, d] with
  /// d = min(retry_backoff_max_ms, retry_backoff_initial_ms << n).
  int retry_backoff_initial_ms = 10;
  int retry_backoff_max_ms = 1000;
  /// Seed of the jitter PRNG; 0 = a fixed default (deterministic tests).
  uint64_t retry_jitter_seed = 0;
};

/// The C++ client of the wire protocol: one TCP connection, synchronous
/// request/response (src/net/wire.h; DESIGN.md §7). Reassembles chunked
/// response payloads, so callers see exactly the envelope the in-process
/// TemporalQueryService::Execute returns — a non-OK wire status comes
/// back as the same Status (code and message) the server-side execution
/// produced.
///
/// Not thread-safe (one conversation at a time); open one client per
/// thread. The server serves each connection on one handler thread and
/// executes its requests directly on the shared service.
class TxmlClient {
 public:
  static StatusOr<TxmlClient> Connect(const std::string& host, uint16_t port,
                                      ClientOptions options = {});

  TxmlClient(TxmlClient&&) = default;
  TxmlClient& operator=(TxmlClient&&) = default;

  /// Executes a query on the server; byte-for-byte the payload the
  /// in-process Execute would return.
  StatusOr<QueryResponse> Execute(const QueryRequest& request);

  /// Stores a new document version on the server.
  StatusOr<QueryResponse> Execute(const PutRequest& request);

  /// Commits a batch of puts/deletes through one group-commit submission
  /// (one fsync on the server in always mode); the payload reports each
  /// item's outcome independently.
  StatusOr<QueryResponse> Execute(const WriteBatchRequest& request);

  /// Vacuums the server's store per the request's retention horizons.
  StatusOr<QueryResponse> Execute(const VacuumRequest& request);

  /// Fetches the server's <stats> document (service + durability +
  /// replication + server counters).
  StatusOr<QueryResponse> Stats(const StatsRequest& request = {});

  /// Closes the connection (also done by the destructor).
  void Close() { socket_.Close(); }
  bool connected() const { return socket_.valid(); }

 private:
  TxmlClient(Socket socket, ClientOptions options)
      : socket_(std::move(socket)),
        options_(options),
        jitter_(options.retry_jitter_seed) {}

  /// Sends one request frame and collects header + chunks + end.
  StatusOr<QueryResponse> RoundTrip(FrameType type, std::string payload);
  /// RoundTrip wrapped in the ClientOptions retry policy (reconnecting
  /// when a failed attempt closed the socket).
  StatusOr<QueryResponse> RoundTripWithRetry(FrameType type,
                                             const std::string& payload);
  /// Re-establishes socket_ to the remembered host/port.
  Status Reconnect();
  /// Sleeps the jittered exponential backoff before retry `attempt`.
  void BackoffSleep(int attempt);

  Socket socket_;
  ClientOptions options_;
  /// Where Connect() reached, for retry reconnection.
  std::string host_;
  uint16_t port_ = 0;
  Random jitter_;
};

}  // namespace txml

#endif  // TXML_SRC_NET_CLIENT_H_

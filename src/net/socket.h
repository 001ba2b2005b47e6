#ifndef TXML_SRC_NET_SOCKET_H_
#define TXML_SRC_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/net/wire.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace txml {

/// RAII wrapper over one connected TCP socket (blocking I/O). Move-only;
/// the destructor closes the descriptor. Error vocabulary:
///
///   kTimeout      — SO_RCVTIMEO / SO_SNDTIMEO expired mid-operation;
///   kUnavailable  — the peer closed the connection at a clean frame
///                   boundary (EOF before any byte of a frame);
///   kInvalidFrame — framing violations: EOF inside a frame, a length
///                   prefix over the budget, an unknown frame type;
///   kIoError      — everything errno-shaped.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric IP or name). `connect_timeout_ms` <= 0
  /// means the OS default.
  static StatusOr<Socket> Connect(const std::string& host, uint16_t port,
                                  int connect_timeout_ms = 5000);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Per-direction blocking-I/O deadlines; <= 0 leaves a direction
  /// unbounded.
  Status SetTimeouts(int read_timeout_ms, int write_timeout_ms);

  /// The peer's IP address as printed text ("127.0.0.1"), without the
  /// port — the admission rate limiter's bucket key, which must survive
  /// the same client reconnecting from a fresh ephemeral port. Empty on
  /// error (e.g. an unconnected socket).
  std::string PeerAddress() const;

  /// Writes all of `data`, looping over partial sends.
  Status WriteAll(std::string_view data);

  /// Reads exactly n bytes into buf. EOF with zero bytes read returns
  /// kUnavailable (clean close); EOF after a partial read returns
  /// kInvalidFrame (the peer died mid-message).
  Status ReadExact(char* buf, size_t n);

  /// Half-closes the read side: a peer blocked in ReadExact wakes with
  /// EOF while buffered outbound data still drains. Used by graceful
  /// server shutdown.
  void ShutdownRead();
  /// Full shutdown of both directions.
  void ShutdownBoth();
  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1 (the server is a loopback /
/// behind-a-proxy process; no external interface binding yet).
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens; port 0 picks an ephemeral port (see port()).
  static StatusOr<ListenSocket> Listen(uint16_t port, int backlog = 64);

  /// Blocks for the next connection. Returns kUnavailable once the socket
  /// has been shut down (the accept loop's exit signal).
  StatusOr<Socket> Accept();

  /// Wakes a blocked Accept with kUnavailable.
  void Shutdown();
  void Close();

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Writes one frame (header + body) to the socket.
Status WriteFrame(Socket* socket, FrameType type, std::string_view payload);

/// Reads one frame, enforcing `max_frame_bytes` on the body length before
/// allocating. kUnavailable = clean EOF between frames; kInvalidFrame =
/// anything structurally wrong; kTimeout = read deadline expired.
StatusOr<Frame> ReadFrame(Socket* socket, size_t max_frame_bytes);

/// Writes one response envelope: the kResponseHeader frame, the payload
/// in kResponseChunk frames of at most `chunk_bytes` (only when `status`
/// is OK) and the kResponseEnd frame. Returns false on any socket error,
/// after which the connection is unusable.
bool SendResponse(Socket* socket, const Status& status,
                  const QueryResponse& response = {},
                  size_t chunk_bytes = kDefaultResponseChunkBytes);

}  // namespace txml

#endif  // TXML_SRC_NET_SOCKET_H_

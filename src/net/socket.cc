#include "src/net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/util/coding.h"
#include "src/util/macros.h"

namespace txml {
namespace {

Status ErrnoStatus(std::string_view op, int err) {
  if (err == EAGAIN || err == EWOULDBLOCK) {
    return Status::Timeout(std::string(op) + " timed out");
  }
  return Status::IoError(std::string(op) + ": " + std::strerror(err));
}

timeval MillisToTimeval(int ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return tv;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Socket> Socket::Connect(const std::string& host, uint16_t port,
                                 int connect_timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &resolved);
  if (rc != 0 || resolved == nullptr) {
    return Status::Unavailable("cannot resolve " + host + ": " +
                               gai_strerror(rc));
  }
  Socket socket(::socket(resolved->ai_family, resolved->ai_socktype,
                         resolved->ai_protocol));
  if (!socket.valid()) {
    int err = errno;
    ::freeaddrinfo(resolved);
    return ErrnoStatus("socket", err);
  }
  if (connect_timeout_ms > 0) {
    // SO_SNDTIMEO bounds a blocking connect on Linux.
    timeval tv = MillisToTimeval(connect_timeout_ms);
    ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  rc = ::connect(socket.fd(), resolved->ai_addr, resolved->ai_addrlen);
  int err = errno;
  ::freeaddrinfo(resolved);
  if (rc != 0) {
    if (err == EINPROGRESS || err == EAGAIN || err == EWOULDBLOCK) {
      return Status::Timeout("connect to " + host + " timed out");
    }
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(err));
  }
  int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Status Socket::SetTimeouts(int read_timeout_ms, int write_timeout_ms) {
  if (read_timeout_ms > 0) {
    timeval tv = MillisToTimeval(read_timeout_ms);
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
      return ErrnoStatus("setsockopt(SO_RCVTIMEO)", errno);
    }
  }
  if (write_timeout_ms > 0) {
    timeval tv = MillisToTimeval(write_timeout_ms);
    if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
      return ErrnoStatus("setsockopt(SO_SNDTIMEO)", errno);
    }
  }
  return Status::OK();
}

std::string Socket::PeerAddress() const {
  sockaddr_storage addr;
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return "";
  }
  char buf[INET6_ADDRSTRLEN] = {};
  if (addr.ss_family == AF_INET) {
    const auto* v4 = reinterpret_cast<const sockaddr_in*>(&addr);
    if (::inet_ntop(AF_INET, &v4->sin_addr, buf, sizeof(buf)) == nullptr) {
      return "";
    }
  } else if (addr.ss_family == AF_INET6) {
    const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&addr);
    if (::inet_ntop(AF_INET6, &v6->sin6_addr, buf, sizeof(buf)) == nullptr) {
      return "";
    }
  } else {
    return "";
  }
  return buf;
}

Status Socket::WriteAll(std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send", errno);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::ReadExact(char* buf, size_t n) {
  size_t received = 0;
  while (received < n) {
    ssize_t got = ::recv(fd_, buf + received, n - received, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("recv", errno);
    }
    if (got == 0) {
      if (received == 0) {
        return Status::Unavailable("connection closed");
      }
      return Status::InvalidFrame("connection closed mid-message (" +
                                  std::to_string(received) + "/" +
                                  std::to_string(n) + " bytes)");
    }
    received += static_cast<size_t>(got);
  }
  return Status::OK();
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<ListenSocket> ListenSocket::Listen(uint16_t port, int backlog) {
  ListenSocket listener;
  listener.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd_ < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  ::setsockopt(listener.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener.fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind", errno);
  }
  if (::listen(listener.fd_, backlog) != 0) {
    return ErrnoStatus("listen", errno);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname", errno);
  }
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

StatusOr<Socket> ListenSocket::Accept() {
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EINVAL || errno == EBADF) {
      // The listener was shut down / closed under us: the exit signal.
      return Status::Unavailable("listener shut down");
    }
    return ErrnoStatus("accept", errno);
  }
}

void ListenSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WriteFrame(Socket* socket, FrameType type, std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 5);
  AppendFrame(type, payload, &frame);
  return socket->WriteAll(frame);
}

StatusOr<Frame> ReadFrame(Socket* socket, size_t max_frame_bytes) {
  char header[4];
  TXML_RETURN_IF_ERROR(socket->ReadExact(header, sizeof(header)));
  Decoder decoder(std::string_view(header, sizeof(header)));
  uint32_t body_length = decoder.ReadFixed32().value();
  if (body_length == 0) {
    return Status::InvalidFrame("zero-length frame body");
  }
  if (body_length > max_frame_bytes) {
    return Status::InvalidFrame(
        "frame of " + std::to_string(body_length) + " bytes exceeds limit " +
        std::to_string(max_frame_bytes));
  }
  std::string body(body_length, '\0');
  Status read = socket->ReadExact(body.data(), body.size());
  if (!read.ok()) {
    // EOF between the header and the body is truncation, not a clean close.
    if (read.IsUnavailable()) {
      return Status::InvalidFrame("connection closed before frame body");
    }
    return read;
  }
  uint8_t type = static_cast<uint8_t>(body[0]);
  if (type < static_cast<uint8_t>(FrameType::kQueryRequest) ||
      type > kMaxFrameType) {
    return Status::InvalidFrame("unknown frame type " + std::to_string(type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload = body.substr(1);
  return frame;
}

bool SendResponse(Socket* socket, const Status& status,
                  const QueryResponse& response, size_t chunk_bytes) {
  ResponseHeader header;
  header.status_code = status.code();
  header.error_message = status.message();
  header.payload_bytes = status.ok() ? response.payload.size() : 0;
  header.stats = response.stats;
  header.sequence = response.sequence;
  if (!WriteFrame(socket, FrameType::kResponseHeader,
                  EncodeResponseHeader(header))
           .ok()) {
    return false;
  }
  if (status.ok()) {
    std::string_view rest = response.payload;
    while (!rest.empty()) {
      size_t chunk = std::min(rest.size(), chunk_bytes);
      if (!WriteFrame(socket, FrameType::kResponseChunk, rest.substr(0, chunk))
               .ok()) {
        return false;
      }
      rest.remove_prefix(chunk);
    }
  }
  return WriteFrame(socket, FrameType::kResponseEnd,
                    EncodeResponseEnd(header.payload_bytes))
      .ok();
}

}  // namespace txml

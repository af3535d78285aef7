// Blocking TCP primitives for disc_serve and its clients: listen/connect
// helpers plus a buffered newline-delimited channel. POSIX sockets only —
// the daemon targets Linux; nothing here is performance-critical (the
// engine work dominates every request by orders of magnitude).

#ifndef DISC_SERVER_NET_H_
#define DISC_SERVER_NET_H_

#include <string>
#include <utility>

#include "util/status.h"

namespace disc {

/// Creates a listening TCP socket bound to host:port (port 0 picks an
/// ephemeral port) with SO_REUSEADDR set. Returns the file descriptor.
Result<int> ListenTcp(const std::string& host, int port);

/// The port a listening socket is actually bound to (resolves port 0).
Result<int> ListenPort(int listen_fd);

/// Connects to host:port. Returns the file descriptor.
Result<int> ConnectTcp(const std::string& host, int port);

/// Closes a socket if it is open; idempotent.
void CloseSocket(int* fd);

/// Puts a file descriptor into non-blocking mode (O_NONBLOCK). Used by the
/// event-loop server.
Status SetNonBlocking(int fd);

/// A buffered line channel over a connected socket. Does NOT own the fd.
/// ReadLine strips the trailing '\n' (and a '\r' before it); WriteLine
/// appends the '\n'. Not thread-safe — one channel per connection handler.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}

  /// Reads the next line, blocking. NotFound on clean EOF (peer closed),
  /// IOError on a socket error.
  Result<std::string> ReadLine();

  /// Writes `line` plus '\n', blocking until fully sent. IOError on a
  /// socket error (including a closed peer; SIGPIPE is suppressed).
  Status WriteLine(const std::string& line);

 private:
  int fd_;
  std::string buffer_;
};

/// A client-side connection: owns the socket, speaks the line protocol.
/// Move-only; closes on destruction.
class LineClient {
 public:
  static Result<LineClient> Connect(const std::string& host, int port);

  LineClient(LineClient&& other) noexcept
      : fd_(other.fd_), channel_(std::move(other.channel_)) {
    other.fd_ = -1;
  }
  LineClient& operator=(LineClient&& other) noexcept;
  ~LineClient() { CloseSocket(&fd_); }

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  Status SendLine(const std::string& line) { return channel_.WriteLine(line); }
  Result<std::string> RecvLine() { return channel_.ReadLine(); }

  /// Sends one command and returns its one response line.
  Result<std::string> Roundtrip(const std::string& line);

 private:
  explicit LineClient(int fd) : fd_(fd), channel_(fd) {}

  int fd_ = -1;
  LineChannel channel_;
};

/// One parsed HTTP response. `head` is the raw status line + headers
/// (tests inspect e.g. Retry-After); `body` is the exact payload — for
/// disc_serve, the protocol JSON line plus its trailing newline.
struct HttpResponse {
  int status = 0;
  std::string head;
  std::string body;
};

/// A minimal blocking HTTP/1.1 client for the event loop's HTTP transport:
/// one keep-alive connection (= one disc_serve session), sequential
/// round-trips, Content-Length responses only (all the daemon sends).
/// Used by disc_client --http, the serve bench's HTTP leg, and tests.
/// Move-only; closes on destruction.
class HttpClient {
 public:
  static Result<HttpClient> Connect(const std::string& host, int port);

  HttpClient(HttpClient&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  HttpClient& operator=(HttpClient&& other) noexcept;
  ~HttpClient() { CloseSocket(&fd_); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// POSTs `body` to `path` and reads the full response. `extra_headers`,
  /// when non-empty, is spliced into the request head verbatim (each line
  /// must end with \r\n) — tests use it for Connection: close and friends.
  Result<HttpResponse> Post(const std::string& path, const std::string& body,
                            const std::string& extra_headers = "");

  /// GET (the read-only /stats endpoint accepts it).
  Result<HttpResponse> Get(const std::string& path);

 private:
  explicit HttpClient(int fd) : fd_(fd) {}

  Result<HttpResponse> Roundtrip(const std::string& request_text);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace disc

#endif  // DISC_SERVER_NET_H_

// Minimal AF_UNIX stream plumbing for the serve daemon and its clients.
// Deliberately tiny: blocking sockets, one request per connection, a
// poll()-based accept so the daemon's loop can notice the process
// cancel token between connections. Everything throws util::IoError
// with the socket path in the message.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cadapt::serve {

/// Bind + listen on a Unix-domain stream socket, replacing a stale file
/// at `path` (the daemon owns its socket path). Returns the listen fd.
int listen_unix(const std::string& path);

/// Wait up to `timeout_ms` for a connection. Returns the accepted fd, or
/// nullopt on timeout / EINTR (the caller re-checks its cancel token and
/// loops). Throws on real accept errors.
std::optional<int> accept_unix(int listen_fd, int timeout_ms);

/// Connect to the daemon's socket. Returns the connected fd.
int connect_unix(const std::string& path);

/// Write all of `data`, retrying short writes; MSG_NOSIGNAL so a client
/// that vanished mid-stream surfaces as IoError, not SIGPIPE.
void write_all(int fd, std::string_view data);

void close_fd(int fd);

/// Buffered newline-delimited reads from a socket fd (does not own it).
class LineReader {
 public:
  /// `max_line` caps one line's length in bytes; 0 = uncapped. The daemon
  /// caps request lines so a peer cannot grow its buffer without bound;
  /// clients stay uncapped because streamed `sweep_cell` lines grow with
  /// a cell's trials.
  explicit LineReader(int fd, std::size_t max_line = 0)
      : fd_(fd), max_line_(max_line) {}

  /// Next line without its trailing '\n'; nullopt at EOF. A final
  /// unterminated chunk is returned as a line (torn-tail tolerant, like
  /// the JSONL loaders). Throws util::ParseError once a line is longer
  /// than `max_line`, without waiting for its newline.
  std::optional<std::string> next();

  /// Everything left: buffered bytes plus the stream to EOF, verbatim.
  /// This is how a client receives the report tail byte-identically.
  std::string remaining();

 private:
  bool fill();  // one read(); false at EOF

  int fd_;
  std::size_t max_line_;
  std::string buffer_;
  std::size_t pos_ = 0;
};

}  // namespace cadapt::serve

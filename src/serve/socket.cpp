#include "serve/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.hpp"

namespace cadapt::serve {

namespace {

sockaddr_un address_for(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw util::IoError("socket path too long: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw util::IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

int listen_unix(const std::string& path) {
  const sockaddr_un addr = address_for(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("cannot create socket", path);
  ::unlink(path.c_str());  // stale socket from a killed daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    fail("cannot bind socket", path);
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    fail("cannot listen on socket", path);
  }
  return fd;
}

std::optional<int> accept_unix(int listen_fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = listen_fd;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return std::nullopt;
  if (ready < 0) {
    if (errno == EINTR) return std::nullopt;
    throw util::IoError(std::string("poll failed on listen socket: ") +
                        std::strerror(errno));
  }
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    throw util::IoError(std::string("accept failed: ") +
                        std::strerror(errno));
  }
  return fd;
}

int connect_unix(const std::string& path) {
  const sockaddr_un addr = address_for(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("cannot create socket", path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    fail("cannot connect to daemon at", path);
  }
  return fd;
}

void write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::IoError(std::string("socket write failed: ") +
                          std::strerror(errno));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

bool LineReader::fill() {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::IoError(std::string("socket read failed: ") +
                          std::strerror(errno));
    }
    if (n == 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

std::optional<std::string> LineReader::next() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', pos_);
    const std::size_t length =
        (nl != std::string::npos ? nl : buffer_.size()) - pos_;
    if (max_line_ != 0 && length > max_line_) {
      throw util::ParseError("request line exceeds " +
                             std::to_string(max_line_) + " bytes");
    }
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      return line;
    }
    // Compact consumed bytes before growing the buffer.
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    if (!fill()) {
      if (buffer_.empty()) return std::nullopt;
      std::string line = std::move(buffer_);
      buffer_.clear();
      return line;
    }
  }
}

std::string LineReader::remaining() {
  std::string out = buffer_.substr(pos_);
  buffer_.clear();
  pos_ = 0;
  while (fill()) {
    out += buffer_;
    buffer_.clear();
  }
  return out;
}

}  // namespace cadapt::serve

#include "robust/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "util/check.hpp"

namespace cadapt::robust {

namespace {

std::string errno_detail() {
  return std::strerror(errno);
}

class SystemIo final : public IoBackend {
 public:
  int open_trunc(const char* path) override {
    return ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  int open_append(const char* path) override {
    return ::open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  }
  std::int64_t write(int fd, const void* data, std::size_t size) override {
    return static_cast<std::int64_t>(::write(fd, data, size));
  }
  int fsync(int fd) override { return ::fsync(fd); }
  int close(int fd) override { return ::close(fd); }
  std::int64_t seek_end(int fd) override {
    return static_cast<std::int64_t>(::lseek(fd, 0, SEEK_END));
  }
  int rename(const char* from, const char* to) override {
    return ::rename(from, to);
  }
  int remove(const char* path) override { return ::unlink(path); }
  int fsync_parent(const char* path) override {
    const char* slash = std::strrchr(path, '/');
    const std::string dir =
        slash != nullptr
            ? std::string(path, static_cast<std::size_t>(slash - path))
            : std::string(".");
    const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
    if (fd < 0) return -1;
    const int rc = ::fsync(fd);
    ::close(fd);
    return rc;
  }
};

}  // namespace

IoBackend& system_io() {
  static SystemIo io;
  return io;
}

bool FaultyIo::fail(FaultSite site) {
  const std::uint64_t occurrence =
      counts_[static_cast<std::size_t>(site)].fetch_add(
          1, std::memory_order_relaxed);
  // I/O faults are keyed by occurrence only: syscalls have no trial or
  // attempt of their own (the plan hash still mixes the site and seed).
  return plan_ != nullptr &&
         plan_->should_fail(site, /*trial=*/0, /*attempt=*/0, occurrence);
}

std::int64_t FaultyIo::write(int fd, const void* data, std::size_t size) {
  if (fail(FaultSite::kIoEnospc)) {
    errno = ENOSPC;
    return -1;
  }
  if (fail(FaultSite::kIoWrite)) {
    errno = EIO;
    return -1;
  }
  if (fail(FaultSite::kIoShortWrite)) {
    // Persist a real torn prefix — the caller sees a short count, the
    // file sees half a record, exactly like a disk-full-mid-write.
    const std::size_t half = size / 2;
    if (half == 0) return 0;
    return inner_.write(fd, data, half);
  }
  return inner_.write(fd, data, size);
}

int FaultyIo::fsync(int fd) {
  if (fail(FaultSite::kIoFsync)) {
    errno = EIO;
    return -1;
  }
  return inner_.fsync(fd);
}

int FaultyIo::fsync_parent(const char* path) {
  if (fail(FaultSite::kIoFsync)) {
    errno = EIO;
    return -1;
  }
  return inner_.fsync_parent(path);
}

bool FaultyIo::plan_arms_io(const FaultPlan& plan) {
  return plan.rate(FaultSite::kIoWrite) > 0.0 ||
         plan.rate(FaultSite::kIoShortWrite) > 0.0 ||
         plan.rate(FaultSite::kIoEnospc) > 0.0 ||
         plan.rate(FaultSite::kIoFsync) > 0.0;
}

CrashPoint& CrashPoint::instance() {
  static CrashPoint point;
  return point;
}

void CrashPoint::arm(std::uint64_t nth_write) {
  remaining_.store(nth_write, std::memory_order_relaxed);
  armed_.store(nth_write != 0, std::memory_order_relaxed);
}

void CrashPoint::visit(IoBackend& io, int fd, const void* data,
                       std::size_t size) {
  if (!armed()) return;
  const std::uint64_t before =
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
  if (before != 1) return;  // not this site (0 means a late racer; skip)
  // The armed write: persist a torn prefix, then die as a power cut
  // would — no unwinding, no destructors, no flushes.
  if (size / 2 != 0) {
    (void)io.write(fd, data, size / 2);
    (void)io.fsync(fd);
  }
  std::raise(SIGKILL);
}

void atomic_write_file(const std::string& path, std::string_view content,
                       IoBackend& io) {
  // One chunk sized to the content: one durable write, as the chaos
  // lane's crash-point indexes expect.
  AtomicFileWriter writer(path, io, std::max<std::size_t>(content.size(), 1));
  writer.write(content);
  writer.commit();
}

AtomicFileWriter::AtomicFileWriter(const std::string& path, IoBackend& io,
                                   std::size_t chunk_bytes)
    : path_(path), tmp_(path + ".tmp"), io_(io), chunk_bytes_(chunk_bytes) {
  CADAPT_CHECK_MSG(chunk_bytes_ > 0, "AtomicFileWriter chunk must be > 0");
  fd_ = io_.open_trunc(tmp_.c_str());
  if (fd_ < 0) {
    throw util::IoError("cannot open '" + tmp_ +
                        "' for writing: " + errno_detail());
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_ || fd_ < 0) return;
  // Abandoned mid-stream (an exception above us): same cleanup as a
  // failed commit — close and remove the temp, leave `path_` untouched.
  io_.close(fd_);
  io_.remove(tmp_.c_str());
}

void AtomicFileWriter::abort_commit(const std::string& what) {
  io_.close(fd_);
  fd_ = -1;
  io_.remove(tmp_.c_str());
  committed_ = true;  // nothing left to clean up in the destructor
  throw util::IoError(what + "; '" + path_ + "' left untouched");
}

void AtomicFileWriter::flush() {
  if (buffer_.empty()) return;
  const std::string chunk = std::move(buffer_);
  buffer_.clear();
  CrashPoint::instance().visit(io_, fd_, chunk.data(), chunk.size());
  const std::int64_t wrote = io_.write(fd_, chunk.data(), chunk.size());
  if (wrote < 0) {
    abort_commit("write to '" + tmp_ + "' failed: " + errno_detail());
  }
  if (static_cast<std::size_t>(wrote) != chunk.size()) {
    abort_commit("short write to '" + tmp_ + "'");
  }
}

void AtomicFileWriter::write(std::string_view data) {
  CADAPT_CHECK_MSG(!committed_, "AtomicFileWriter used after commit");
  buffer_.append(data.data(), data.size());
  if (buffer_.size() >= chunk_bytes_) flush();
}

void AtomicFileWriter::commit() {
  CADAPT_CHECK_MSG(!committed_, "AtomicFileWriter committed twice");
  flush();
  if (io_.fsync(fd_) != 0) {
    abort_commit("fsync of '" + tmp_ + "' failed: " + errno_detail());
  }
  const int close_rc = io_.close(fd_);
  fd_ = -1;
  if (close_rc != 0) {
    io_.remove(tmp_.c_str());
    committed_ = true;
    throw util::IoError("close of '" + tmp_ + "' failed: " + errno_detail() +
                        "; '" + path_ + "' left untouched");
  }
  if (io_.rename(tmp_.c_str(), path_.c_str()) != 0) {
    const std::string detail = errno_detail();
    io_.remove(tmp_.c_str());
    committed_ = true;
    throw util::IoError("rename of '" + tmp_ + "' failed: " + detail + "; '" +
                        path_ + "' left untouched");
  }
  committed_ = true;
  if (io_.fsync_parent(path_.c_str()) != 0) {
    throw util::IoError("fsync of parent directory of '" + path_ +
                        "' failed: " + errno_detail());
  }
}

DurableAppender::DurableAppender(const std::string& path, bool truncate,
                                 IoBackend& io)
    : path_(path), io_(io) {
  fd_ = truncate ? io_.open_trunc(path.c_str())
                 : io_.open_append(path.c_str());
  if (fd_ < 0) {
    throw util::IoError("cannot open '" + path +
                        "' for writing: " + errno_detail());
  }
  if (!truncate) {
    const std::int64_t size = io_.seek_end(fd_);
    initial_size_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
  }
}

DurableAppender::~DurableAppender() {
  if (fd_ >= 0) io_.close(fd_);
}

void DurableAppender::write(std::string_view data) {
  buffer_.append(data.data(), data.size());
}

void DurableAppender::commit() {
  if (buffer_.empty()) return;
  const std::string batch = std::move(buffer_);
  buffer_.clear();
  if (!failed_.empty()) throw util::IoError(failed_);
  CrashPoint::instance().visit(io_, fd_, batch.data(), batch.size());
  const std::int64_t wrote = io_.write(fd_, batch.data(), batch.size());
  if (wrote < 0) {
    failed_ = "write to '" + path_ + "' failed: " + errno_detail();
  } else if (static_cast<std::size_t>(wrote) != batch.size()) {
    failed_ = "short write to '" + path_ + "' (" + std::to_string(wrote) +
              " of " + std::to_string(batch.size()) + " bytes)";
  } else if (io_.fsync(fd_) != 0) {
    failed_ = "fsync of '" + path_ + "' failed: " + errno_detail();
  }
  if (!failed_.empty()) throw util::IoError(failed_);
}

}  // namespace cadapt::robust

// Durable I/O substrate (docs/ROBUSTNESS.md, "Durability & crash safety").
//
// Every campaign artifact writer goes through this layer instead of raw
// ofstream:
//
//   AtomicFileWriter — whole-file artifacts (sweep reports, merges)
//     commit via write-temp -> write -> fsync -> close -> rename ->
//     fsync(parent dir). A crash or failed write NEVER leaves a partial
//     file at the final path; the previous version stays intact.
//
//   DurableAppender — append-only logs (Monte-Carlo and sweep
//     checkpoints) batch records and fsync per commit. A crash mid-commit
//     may leave a torn final line at the final path — the wound
//     truncate_torn_tail and the tolerant JSONL loaders are built to
//     recover — but every previously committed record survives.
//
// The IoBackend seam sits *below* both protocols, so the fault registry's
// I/O sites (FaultyIo: short write, ENOSPC, EIO, fsync failure) and the
// CrashPoint harness (SIGKILL at the Nth durable write, chaos lane)
// exercise the guarantees against the syscalls actually failing.
#pragma once

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "robust/fault.hpp"

namespace cadapt::robust {

/// Thin virtual seam over the POSIX file operations the durable writers
/// use. Implementations mirror the syscalls: fds, -1 with errno on
/// failure, short writes possible — so an injected failure is
/// indistinguishable from a real one to the code above.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual int open_trunc(const char* path) = 0;
  virtual int open_append(const char* path) = 0;
  /// May write fewer than size bytes (a short write); returns -1 on error.
  virtual std::int64_t write(int fd, const void* data, std::size_t size) = 0;
  virtual int fsync(int fd) = 0;
  virtual int close(int fd) = 0;
  /// Seek to end-of-file; returns the resulting offset or -1.
  virtual std::int64_t seek_end(int fd) = 0;
  virtual int rename(const char* from, const char* to) = 0;
  virtual int remove(const char* path) = 0;
  /// fsync the directory containing `path` (durability of the rename).
  virtual int fsync_parent(const char* path) = 0;
};

/// The real filesystem (process-wide singleton).
IoBackend& system_io();

/// IoBackend adapter visiting the registry's I/O fault sites with
/// per-site occurrence counters (atomic: writers may commit from any
/// worker thread, and the plan's decision is a pure function of the
/// occurrence index either way). write() visits kIoEnospc, kIoWrite,
/// kIoShortWrite in that order; fsync()/fsync_parent() visit kIoFsync.
/// A fired kIoShortWrite persists exactly half the payload — a real torn
/// write, not just an error code. Plan and inner backend must outlive
/// the adapter.
class FaultyIo final : public IoBackend {
 public:
  FaultyIo(IoBackend& inner, const FaultPlan* plan)
      : inner_(inner), plan_(plan) {}

  int open_trunc(const char* path) override { return inner_.open_trunc(path); }
  int open_append(const char* path) override {
    return inner_.open_append(path);
  }
  std::int64_t write(int fd, const void* data, std::size_t size) override;
  int fsync(int fd) override;
  int close(int fd) override { return inner_.close(fd); }
  std::int64_t seek_end(int fd) override { return inner_.seek_end(fd); }
  int rename(const char* from, const char* to) override {
    return inner_.rename(from, to);
  }
  int remove(const char* path) override { return inner_.remove(path); }
  int fsync_parent(const char* path) override;

  /// True if the plan arms any of the four I/O sites (callers skip the
  /// wrapping entirely otherwise — zero-cost clean path).
  static bool plan_arms_io(const FaultPlan& plan);

 private:
  bool fail(FaultSite site);

  IoBackend& inner_;
  const FaultPlan* plan_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> counts_{};
};

/// Process-global crash-point switch for the chaos harness
/// (tools/chaos_sweep.sh): when armed with N, the Nth durable write in
/// the process persists only a torn prefix of its payload and raises
/// SIGKILL — a faithful model of power loss mid-write. Disarmed cost is
/// one relaxed load per durable commit (not per record). Arm via
/// `cadapt sweep --crash-after=N`.
class CrashPoint {
 public:
  static CrashPoint& instance();

  /// Arm the Nth (1-based) durable write to crash; 0 disarms.
  void arm(std::uint64_t nth_write);
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Visit one durable write site about to put `size` bytes on `fd`.
  /// At the armed site: writes size/2 bytes, fsyncs, and SIGKILLs the
  /// process (shell exit 137). Otherwise returns immediately.
  void visit(IoBackend& io, int fd, const void* data, std::size_t size);

 private:
  CrashPoint() = default;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> remaining_{0};
};

/// Commit a file atomically: write() buffers into chunks of
/// `chunk_bytes` and flushes full chunks to `path + ".tmp"`; commit()
/// flushes the tail, fsyncs, closes, renames over `path`, and fsyncs the
/// parent directory. Until the rename only the temp file is touched; any
/// failure removes it and throws util::IoError — `path` is either the
/// complete new content or untouched, never a partial file.
///
/// Crash modelling: every flushed chunk is one durable write
/// (CrashPoint-visited), so a payload under `chunk_bytes` costs exactly
/// one durable write, which keeps the chaos lane's crash-point indexes
/// stable for every report the lane writes. Destroying an uncommitted
/// writer aborts the commit and removes the temp file.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path,
                            IoBackend& io = system_io(),
                            std::size_t chunk_bytes = 4u << 20);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  void write(std::string_view data);
  void commit();

 private:
  void flush();
  [[noreturn]] void abort_commit(const std::string& what);

  std::string path_;
  std::string tmp_;
  IoBackend& io_;
  std::size_t chunk_bytes_;
  int fd_ = -1;
  bool committed_ = false;
  std::string buffer_;
};

/// AtomicFileWriter over one in-memory payload, written as one chunk.
void atomic_write_file(const std::string& path, std::string_view content,
                       IoBackend& io = system_io());

/// Append-only durable writer over an fd. write() buffers; commit()
/// pushes the batch with one write() + fsync(). Throws util::IoError on
/// open/write/fsync failure. A failed or crashed commit may leave a torn
/// tail at the final path (recovered on reopen by truncate_torn_tail +
/// the tolerant loaders); committed bytes are never lost.
class DurableAppender {
 public:
  /// truncate == true starts the file empty; false opens for append
  /// (creating it if missing).
  DurableAppender(const std::string& path, bool truncate,
                  IoBackend& io = system_io());
  ~DurableAppender();

  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  /// Bytes already in the file when it was opened (0 after truncate) —
  /// how append-mode callers decide whether to write a header.
  std::uint64_t initial_size() const { return initial_size_; }

  /// Buffer `data` into the current batch (no I/O yet).
  void write(std::string_view data);

  /// Write the buffered batch and fsync it. The buffer is cleared even on
  /// failure: the batch is either durable or abandoned, never half-owned.
  /// A failed commit may leave part of its batch in the file, so every
  /// later commit of a non-empty batch throws the same IoError without
  /// writing: nothing is ever appended after a torn record, and the torn
  /// tail stays the final line that truncate_torn_tail repairs.
  void commit();

 private:
  std::string path_;
  IoBackend& io_;
  int fd_ = -1;
  std::uint64_t initial_size_ = 0;
  std::string buffer_;
  std::string failed_;  ///< the first failed commit's error, if any
};

}  // namespace cadapt::robust

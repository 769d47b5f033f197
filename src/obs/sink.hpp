// Trace sinks: where recorded events go. Sinks are deliberately
// single-threaded — recorders buffer per-trial observations in
// pre-assigned slots and flush from one thread in a deterministic order,
// so the sink never needs a lock and the emitted stream is identical
// across thread counts (see engine::run_monte_carlo_robust).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/event.hpp"

namespace cadapt::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Record one event. Not thread-safe; see the header comment.
  virtual void write(const Event& event) = 0;
};

/// Buffers events in memory — for tests and validation passes.
class MemorySink final : public TraceSink {
 public:
  void write(const Event& event) override { events_.push_back(event); }
  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Writes one JSON line per event to an ostream (JSONL). The stream must
/// outlive the sink; flushing is left to the stream's owner. One encode
/// buffer is reused across lines (to_jsonl's buffer overload), so the
/// per-event hot path stops allocating.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void write(const Event& event) override;
  std::uint64_t lines() const { return lines_; }

 private:
  std::ostream& os_;
  std::uint64_t lines_ = 0;
  std::string line_;
};

/// Counts and discards — the "tracing attached but pointed nowhere"
/// configuration used by the overhead microbenches.
class NullSink final : public TraceSink {
 public:
  void write(const Event&) override { ++events_; }
  std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

}  // namespace cadapt::obs

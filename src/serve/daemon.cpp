#include "serve/daemon.hpp"

#include <atomic>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "robust/cancel.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/check.hpp"

namespace cadapt::serve {

namespace {

void send_line(int fd, const obs::Event& event) {
  write_all(fd, obs::to_jsonl(event) + "\n");
}

void handle_status(ServeCore& core, int fd, const obs::Event& request) {
  const std::string job = request.str_or("job", "");
  if (!job.empty()) {
    const std::optional<JobStatus> status = core.status(job);
    if (!status.has_value()) {
      send_line(fd, error_event(3, "unknown job '" + job + "'"));
      return;
    }
    send_line(fd, status_event(*status));
    return;
  }
  for (const JobStatus& status : core.status()) {
    send_line(fd, status_event(status));
  }
  send_line(fd, obs::Event("end"));
}

void handle_cancel(ServeCore& core, int fd, const obs::Event& request) {
  const std::string job = request.str_or("job", "");
  if (!core.cancel(job)) {
    send_line(fd, error_event(3, "unknown or finished job '" + job + "'"));
    return;
  }
  obs::Event event("ok");
  event.str("job", job);
  send_line(fd, event);
}

/// The end of a results response: the job_done line, then the report
/// bytes of a finished job.
void send_done(ServeCore& core, int fd, const std::string& job) {
  const std::optional<JobStatus> status = core.status(job);
  CADAPT_CHECK(status.has_value());
  send_line(fd, status_event(*status, "job_done"));
  // The artifact itself, verbatim to EOF — the bytes the client writes
  // with --out are exactly the durable report file's.
  if (status->state == JobState::kDone ||
      status->state == JobState::kCancelled) {
    write_all(fd, core.report_bytes(job));
  }
}

void handle_results(ServeCore& core, int fd, const obs::Event& request) {
  const std::string job = request.str_or("job", "");
  // "progress":false asks for the report alone: no subscription, so the
  // job never buffers cell lines nor pauses on a reader that wants none.
  if (!request.flag_or("progress", true)) {
    if (!core.wait_job(job)) {
      send_line(fd, error_event(3, "unknown job '" + job + "'"));
      return;
    }
    send_done(core, fd, job);
    return;
  }
  if (!core.attach(job)) {
    send_line(fd, error_event(3, "unknown job '" + job + "'"));
    return;
  }
  try {
    // Progress lines stream as cells commit, every buffered line in one
    // write; an empty batch means terminal and drained (or daemon
    // shutdown — the client sees job_done either way).
    std::string batch;
    for (std::vector<std::string> lines = core.next_stream_lines(job);
         !lines.empty(); lines = core.next_stream_lines(job)) {
      batch.clear();
      for (const std::string& line : lines) batch.append(line).append("\n");
      write_all(fd, batch);
    }
    send_done(core, fd, job);
  } catch (...) {
    core.detach(job);
    throw;
  }
  core.detach(job);
}

/// One request line is a manifest plus a few fields; 1 MiB is far above
/// any real one and bounds what a hostile peer can make the daemon buffer.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

void handle_connection(ServeCore& core, int fd, int read_deadline_ms) {
  LineReader reader(fd, kMaxRequestLine, read_deadline_ms);
  const std::optional<std::string> line = reader.next();
  if (!line.has_value()) return;  // client connected and left
  const obs::Event request = parse_line(*line);
  if (request.type == "hello") {
    send_line(fd, version_event("serve_hello"));
  } else if (request.type == "submit") {
    send_line(fd, accepted_event(core.submit(submit_from_event(request))));
  } else if (request.type == "status") {
    handle_status(core, fd, request);
  } else if (request.type == "cancel") {
    handle_cancel(core, fd, request);
  } else if (request.type == "results") {
    handle_results(core, fd, request);
  } else {
    send_line(fd, error_event(2, "unknown request '" + request.type + "'"));
  }
}

// Answer one connection; the caller closes `fd`. Every failure is
// answered with a named error line, unless the client is already gone.
void answer(ServeCore& core, int fd, int read_deadline_ms) {
  const auto fail = [fd](int code, const char* what) {
    try {
      send_line(fd, error_event(code, what));
    } catch (...) {  // client already gone
    }
  };
  try {
    handle_connection(core, fd, read_deadline_ms);
  } catch (const util::ParseError& e) {
    fail(3, e.what());
  } catch (const util::IoError& e) {
    // A spool write failed (a submit's job file is left empty, and no job
    // exists), or the response could not be written.
    fail(3, e.what());
  } catch (const util::CheckError& e) {
    fail(4, e.what());
  } catch (const std::exception& e) {
    fail(1, e.what());
  }
}

}  // namespace

void serve_connection(ServeCore& core, int fd, int read_deadline_ms) {
  answer(core, fd, read_deadline_ms);
  close_fd(fd);
}

int run_daemon(const DaemonOptions& options) {
  ServeCore core(options.core);
  const int listen_fd = listen_unix(options.socket_path);
  // A handler raises `finished` as it returns and the loop joins it, so a
  // finished connection's thread and stack go at once, not at shutdown.
  // `fd` is -1 once the handler closed it; the drain shuts down only open
  // fds, under `mutex`, so it never touches a reused fd number.
  struct Handler {
    std::atomic<bool> finished{false};
    std::mutex mutex;
    int fd = -1;
    std::thread thread;
  };
  std::list<Handler> handlers;
  robust::CancelToken& stop = robust::process_cancel_token();
  while (!stop.requested()) {
    handlers.remove_if([](Handler& handler) {
      if (!handler.finished.load(std::memory_order_acquire)) return false;
      handler.thread.join();
      return true;
    });
    const std::optional<int> fd = accept_unix(listen_fd, /*timeout_ms=*/200);
    if (!fd.has_value()) continue;
    Handler& handler = handlers.emplace_back();
    handler.fd = *fd;
    handler.thread = std::thread([&core, &handler] {
      answer(core, handler.fd, kRequestDeadlineMs);
      {
        const std::lock_guard<std::mutex> lock(handler.mutex);
        close_fd(handler.fd);
        handler.fd = -1;
      }
      handler.finished.store(true, std::memory_order_release);
    });
  }
  // Graceful drain: stop dispatching (in-flight cells unwind through the
  // cooperative cancel path), wake blocked results streams, shut down
  // every open connection (a client that sent half a line and waits
  // would block its handler's read forever), then join.
  core.shutdown();
  close_fd(listen_fd);
  for (Handler& handler : handlers) {
    const std::lock_guard<std::mutex> lock(handler.mutex);
    if (handler.fd >= 0) shutdown_fd(handler.fd);
  }
  for (Handler& handler : handlers) handler.thread.join();
  return 0;
}

}  // namespace cadapt::serve

#include "serve/daemon.hpp"

#include <thread>
#include <utility>
#include <vector>

#include "robust/cancel.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/check.hpp"

namespace cadapt::serve {

namespace {

obs::Event status_line(const JobStatus& status) {
  obs::Event event("job_status");
  event.str("job", status.id)
      .str("client", status.client)
      .str("state", job_state_name(status.state))
      .u64("config_hash", status.config_hash)
      .u64("cells", status.cells_total)
      .u64("done", status.cells_done);
  if (status.truncated) {
    event.flag("truncated", true)
        .str("reason", robust::cancel_reason_name(status.reason));
  }
  if (!status.error.empty()) event.str("error", status.error);
  return event;
}

void send_line(int fd, const obs::Event& event) {
  write_all(fd, obs::to_jsonl(event) + "\n");
}

void handle_submit(ServeCore& core, int fd, const obs::Event& request) {
  const JobStatus status = core.submit(submit_from_event(request));
  obs::Event event("job_accepted");
  event.str("job", status.id)
      .str("client", status.client)
      .u64("config_hash", status.config_hash)
      .u64("cells", status.cells_total);
  send_line(fd, event);
}

void handle_status(ServeCore& core, int fd, const obs::Event& request) {
  const std::string job = request.str_or("job", "");
  if (!job.empty()) {
    const std::optional<JobStatus> status = core.status(job);
    if (!status.has_value()) {
      send_line(fd, error_event(3, "unknown job '" + job + "'"));
      return;
    }
    send_line(fd, status_line(*status));
    return;
  }
  for (const JobStatus& status : core.status()) {
    send_line(fd, status_line(status));
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

void handle_results(ServeCore& core, int fd, const obs::Event& request) {
  const std::string job = request.str_or("job", "");
  if (!core.attach(job)) {
    send_line(fd, error_event(3, "unknown job '" + job + "'"));
    return;
  }
  try {
    // Progress lines stream as cells commit; nullopt means terminal and
    // drained (or daemon shutdown — the client sees job_done either way).
    while (const std::optional<std::string> line = core.next_stream_line(job)) {
      write_all(fd, *line + "\n");
    }
    const std::optional<JobStatus> status = core.status(job);
    CADAPT_CHECK(status.has_value());
    obs::Event done("job_done");
    done.str("job", job).str("state", job_state_name(status->state));
    if (status->truncated) {
      done.flag("truncated", true)
          .str("reason", robust::cancel_reason_name(status->reason));
    }
    if (!status->error.empty()) done.str("error", status->error);
    send_line(fd, done);
    // The artifact itself, verbatim to EOF — the bytes the client writes
    // with --out are exactly the durable report file's.
    if (status->state == JobState::kDone ||
        status->state == JobState::kCancelled) {
      write_all(fd, core.report_bytes(job));
    }
  } catch (...) {
    core.detach(job);
    throw;
  }
  core.detach(job);
}

/// One request line is a manifest plus a few fields; 1 MiB is far above
/// any real one and bounds what a hostile peer can make the daemon buffer.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

void handle_connection(ServeCore& core, int fd) {
  LineReader reader(fd, kMaxRequestLine);
  const std::optional<std::string> line = reader.next();
  if (!line.has_value()) return;  // client connected and left
  const obs::Event request = parse_line(*line);
  if (request.type == "hello") {
    send_line(fd, version_event("serve_hello"));
  } else if (request.type == "submit") {
    handle_submit(core, fd, request);
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

}  // namespace

void serve_connection(ServeCore& core, int fd) {
  try {
    handle_connection(core, fd);
  } catch (const util::ParseError& e) {
    try {
      send_line(fd, error_event(3, e.what()));
    } catch (...) {  // client already gone
    }
  } catch (const util::IoError&) {
    // Either the response could not be written (client gone — nothing
    // left to tell) or a spool write failed (the job never existed; the
    // client sees the closed connection).
  } catch (const util::CheckError& e) {
    try {
      send_line(fd, error_event(4, e.what()));
    } catch (...) {
    }
  } catch (const std::exception& e) {
    try {
      send_line(fd, error_event(1, e.what()));
    } catch (...) {
    }
  }
  close_fd(fd);
}

int run_daemon(const DaemonOptions& options) {
  ServeCore core(options.core);
  const int listen_fd = listen_unix(options.socket_path);
  std::vector<std::thread> connections;
  robust::CancelToken& stop = robust::process_cancel_token();
  while (!stop.requested()) {
    const std::optional<int> fd = accept_unix(listen_fd, /*timeout_ms=*/200);
    if (!fd.has_value()) continue;
    connections.emplace_back(
        [&core, fd = *fd] { serve_connection(core, fd); });
  }
  // Graceful drain: stop dispatching (in-flight cells unwind through the
  // cooperative cancel path), wake blocked results streams, then join.
  core.shutdown();
  close_fd(listen_fd);
  for (std::thread& t : connections) t.join();
  return 0;
}

}  // namespace cadapt::serve

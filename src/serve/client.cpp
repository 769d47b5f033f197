#include "serve/client.hpp"

#include "serve/socket.hpp"
#include "util/check.hpp"

namespace cadapt::serve {

namespace {

/// RAII connection with the request already sent.
class Request {
 public:
  Request(const std::string& socket_path, const obs::Event& request)
      : fd_(connect_unix(socket_path)), reader_(fd_) {
    try {
      write_all(fd_, obs::to_jsonl(request) + "\n");
    } catch (...) {
      close_fd(fd_);
      throw;
    }
  }
  ~Request() { close_fd(fd_); }

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  std::optional<std::string> next_line() { return reader_.next(); }
  std::string remaining() { return reader_.remaining(); }

 private:
  int fd_;
  LineReader reader_;
};

}  // namespace

obs::Event roundtrip(const std::string& socket_path,
                     const obs::Event& request) {
  Request req(socket_path, request);
  const std::optional<std::string> line = req.next_line();
  if (!line.has_value()) {
    throw util::IoError("daemon closed the connection without a response");
  }
  return parse_line(*line);
}

std::vector<obs::Event> roundtrip_all(const std::string& socket_path,
                                      const obs::Event& request) {
  Request req(socket_path, request);
  std::vector<obs::Event> out;
  while (const std::optional<std::string> line = req.next_line()) {
    if (line->empty()) continue;
    out.push_back(parse_line(*line));
  }
  return out;
}

ResultsEnd stream_results(
    const std::string& socket_path, const std::string& job,
    const std::function<void(const std::string&)>& on_progress) {
  obs::Event request("results");
  request.str("job", job);
  // Without a progress callback the daemon sends no cell lines at all.
  if (!on_progress) request.flag("progress", false);
  Request req(socket_path, request);
  ResultsEnd end;
  for (;;) {
    const std::optional<std::string> line = req.next_line();
    if (!line.has_value()) {
      throw util::IoError("daemon closed the results stream early");
    }
    const obs::Event event = parse_line(*line);
    if (event.type == "job_done" || event.type == "error") {
      end.done = event;
      break;
    }
    if (on_progress) on_progress(*line);
  }
  if (end.done.type == "job_done") end.report_bytes = req.remaining();
  return end;
}

}  // namespace cadapt::serve

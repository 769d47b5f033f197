// Client side of the serve protocol: one connection per request
// (connect, send one line, read the response). Used by the `cadapt
// submit/status/cancel/results` subcommands and the serve tests.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "serve/protocol.hpp"

namespace cadapt::serve {

/// One request -> one response line. Throws util::IoError when the
/// daemon is unreachable or closes early, util::ParseError on a
/// malformed response.
obs::Event roundtrip(const std::string& socket_path,
                     const obs::Event& request);

/// One request -> every response line until EOF ("status" with no job).
std::vector<obs::Event> roundtrip_all(const std::string& socket_path,
                                      const obs::Event& request);

/// What `results` yields once the stream ends.
struct ResultsEnd {
  obs::Event done;          ///< the job_done (or error) line
  std::string report_bytes; ///< the report verbatim; empty when none
};

/// Stream a job's results: `on_progress` is called once per sweep_cell
/// line as it arrives, then the job_done line and the report tail are
/// returned. A null `on_progress` sends "progress":false, so the daemon
/// streams no cell lines and only waits for the job. Blocks until the
/// job is terminal.
ResultsEnd stream_results(
    const std::string& socket_path, const std::string& job,
    const std::function<void(const std::string&)>& on_progress);

}  // namespace cadapt::serve

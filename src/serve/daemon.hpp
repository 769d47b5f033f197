// The `cadapt serve` process: a ServeCore behind a Unix-domain socket.
// Thread-per-connection (connections are short: one request line, one
// response; the accept loop joins each handler once it returns), accept
// loop polling robust::process_cancel_token() so SIGINT/SIGTERM drain
// gracefully — in-flight cells unwind through the cooperative cancel
// path, checkpoints keep every committed cell, and the next daemon
// resumes them (docs/SERVE.md).
#pragma once

#include <string>

#include "serve/server.hpp"

namespace cadapt::serve {

struct DaemonOptions {
  std::string socket_path;  ///< required
  ServeOptions core;
};

/// How long a connection may take to send its request line. A client
/// that sends half a line and waits gets one error line and is closed,
/// so it cannot hold its handler thread until the drain.
inline constexpr int kRequestDeadlineMs = 10'000;

/// Run the daemon until the process cancel token fires (the CLI installs
/// the SIGINT/SIGTERM handler first). Returns the CLI exit code.
int run_daemon(const DaemonOptions& options);

/// Handle one accepted connection against `core` (exposed for tests:
/// the wire handlers without the accept loop, with any request-line
/// deadline). Closes `fd`.
void serve_connection(ServeCore& core, int fd,
                      int read_deadline_ms = kRequestDeadlineMs);

}  // namespace cadapt::serve

// The `cadapt serve` wire protocol (docs/SERVE.md): newline-delimited
// JSON over a local Unix-domain stream socket, reusing obs::Event as the
// envelope — the same flat encoding as traces, checkpoints, and reports,
// so one parser serves the whole system.
//
// One connection carries one request line followed by the response:
//
//   hello    -> one serve_hello line (build provenance + versions)
//   submit   -> one job_accepted line (or one error line)
//   status   -> one job_status line per job, then one end line
//   cancel   -> one ok line (or one error line)
//   results  -> sweep_cell progress lines in completion order (telemetry;
//               none when the request says "progress":false), then one
//               job_done line, then the job's full report bytes until
//               EOF — the deterministic artifact, byte-identical to
//               one-shot `cadapt sweep` on the same manifest
//
// error lines carry a `code` mirroring the CLI exit-code taxonomy
// (docs/ROBUSTNESS.md): 2 usage, 3 input, 4 internal.
#pragma once

#include <cstdint>
#include <string>

#include "obs/event.hpp"

namespace cadapt::serve {

/// Bumped when a request/response shape changes incompatibly. Clients
/// handshake via `hello` (or offline via `cadapt version --json`, which
/// prints the same fields) before speaking anything else.
inline constexpr std::uint64_t kProtocolVersion = 1;
/// The campaign::Report version the daemon streams (report.hpp).
inline constexpr std::uint64_t kReportVersion = 1;

/// Machine-readable build provenance plus the protocol/report versions —
/// the payload of both `cadapt version --json` (type "version") and the
/// daemon's hello response (type "serve_hello").
obs::Event version_event(const std::string& type_tag = "version");

/// A submitted job: the manifest text travels verbatim as a JSON string
/// (json_escape round-trips newlines), so the daemon parses the exact
/// bytes a one-shot `cadapt sweep` would read — a precondition of the
/// byte-identity contract. Everything else is per-job/per-client policy.
struct SubmitRequest {
  std::string manifest_text;
  std::string client = "anon";   ///< fair-share tenant identity
  std::uint64_t weight = 1;      ///< WRR weight of this client (>= 1)
  std::uint64_t deadline_ms = 0; ///< per-job wall deadline; 0 = none
  std::uint64_t box_budget = 0;  ///< per-CLIENT total-box cap; 0 = none
  std::string fault_spec;        ///< robust::FaultPlan spec; "" = none
  std::uint64_t fault_seed = 0;  ///< 0 = derive from the manifest seed
  std::uint32_t retries = 0;     ///< extra attempts per failing trial

  bool operator==(const SubmitRequest&) const = default;
};

/// Encode / decode a submit request. Optional fields are only-when-set,
/// like every other encoder in the repo, so minimal requests stay small
/// and stable. submit_from_event applies the struct's defaults.
obs::Event submit_event(const SubmitRequest& request);
SubmitRequest submit_from_event(const obs::Event& event);

/// One protocol error line; `code` mirrors the CLI exit codes.
obs::Event error_event(int code, const std::string& message);

/// Parse one request/response line. Throws util::ParseError on bytes
/// that are not a flat JSONL object.
obs::Event parse_line(const std::string& line);

}  // namespace cadapt::serve

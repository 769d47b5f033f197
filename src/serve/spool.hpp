// The daemon's durable state: one append-only file per job,
// <spool>/job-N.ckpt, written only through the job's CellLifecycle and
// read through read_job (an unfinished job's resume, a finished job's
// report), with one record decoder. After its header it holds the record
// grammar of every checkpoint (src/robust/checkpoint.hpp), then the
// finalize commit, whose job_done line records every outcome (done,
// cancelled, failed with its error) and is the file's last line:
//
//   {"type":"serve_job","manifest":...,"client":...,...,"job":...,
//    "config_hash":...,"cells":...,"run":...}    header, one commit
//   trial and sweep_cell lines                   as a sweep checkpoint's
//   {"type":"sweep_env",...}                     finalize, one commit
//   {"type":"job_done","job":...,"state":...,...,"wall_ms":...}
//
// A file without job_done is an unfinished job (docs/SERVE.md, "Crash
// safety").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/provenance.hpp"
#include "campaign/sweep.hpp"
#include "obs/event.hpp"
#include "robust/checkpoint.hpp"

namespace cadapt::serve {

/// What a job file holds: its header, its cells and the trials of its
/// unfinished cells (campaign::Restored), and the finalize commit.
struct JobFile : campaign::Restored {
  obs::Event header;
  campaign::Provenance env;        ///< the last sweep_env line
  std::optional<obs::Event> done;  ///< the job_done line, once finalized
};

/// The decoder of every record after the header: sweep_cell and trial
/// lines through campaign::restore_cells, sweep_env into `env`, job_done
/// into `done`. Throws util::ParseError for any other line type.
robust::RecordFn job_records(JobFile& into);

/// Read a job file no writer appends to any more, whole.
JobFile read_job(const std::string& path);

class Spool {
 public:
  /// Creates `dir` if missing (one level) and scans it. Throws
  /// util::IoError when the directory cannot be created or read.
  explicit Spool(std::string dir);

  std::string path_for(const std::string& id) const;

  /// Every job id with a file in the spool, in numeric order (= submission
  /// order, so a restarted daemon re-enqueues in the original order).
  /// Throws util::ParseError naming the file when the spool holds a file
  /// of the older four-files-per-job layout (job-N.manifest/.job/.json):
  /// such a spool is refused, never blended.
  std::vector<std::string> scan() const;

  /// Next unused job id ("job-N"); N starts past every file on disk, so a
  /// skipped file's id is never reused.
  std::string allocate_id();

 private:
  std::string dir_;
  std::uint64_t next_id_ = 1;
};

}  // namespace cadapt::serve

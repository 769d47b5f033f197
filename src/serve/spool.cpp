#include "serve/spool.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <utility>

#include "campaign/sweep.hpp"
#include "util/check.hpp"

namespace cadapt::serve {

namespace {

/// "job-12.ckpt" -> {12, "ckpt"}; nullopt for a name of any other shape.
std::optional<std::pair<std::uint64_t, std::string>> job_file(
    const std::string& name) {
  if (name.rfind("job-", 0) != 0) return std::nullopt;
  const char* end = name.data() + name.size();
  std::uint64_t n = 0;
  const auto [dot, ec] = std::from_chars(name.data() + 4, end, n);
  if (ec != std::errc() || dot == end || *dot != '.') return std::nullopt;
  return std::pair{n, std::string(dot + 1, end)};
}

}  // namespace

robust::RecordFn job_records(JobFile& into) {
  return [&into, cells = campaign::restore_cells(into)](
             const robust::JsonlLine& line) {
    if (line.event.type == "sweep_env") {
      into.env = campaign::provenance_from_event(line.event);
    } else if (line.event.type == "job_done") {
      into.done = line.event;
    } else {
      cells(line);  // sweep_cell or a trial, else a ParseError
    }
  };
}

JobFile read_job(const std::string& path) {
  JobFile file;
  file.header = robust::read_checkpoint(path, job_records(file));
  return file;
}

Spool::Spool(std::string dir) : dir_(std::move(dir)) {
  CADAPT_CHECK(!dir_.empty());
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw util::IoError("cannot create spool directory '" + dir_ +
                        "': " + std::strerror(errno));
  }
  // Start ids past everything on disk — a restart must never reuse an
  // id, not even a torn header's.
  const std::vector<std::string> ids = scan();
  if (!ids.empty()) next_id_ = job_file(ids.back() + ".ckpt")->first + 1;
}

std::string Spool::path_for(const std::string& id) const {
  return dir_ + "/" + id + ".ckpt";
}

std::vector<std::string> Spool::scan() const {
  std::vector<std::uint64_t> numbers;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const auto file = job_file(entry.path().filename().string());
    if (!file.has_value()) continue;
    if (file->second == "ckpt") {
      numbers.push_back(file->first);
    } else if (file->second == "manifest" || file->second == "job" ||
               file->second == "json") {
      throw util::ParseError(
          "spool file '" + entry.path().string() +
          "' is from the older four-files-per-job layout; this daemon "
          "keeps one job-N.ckpt per job and refuses to mix the two");
    }
  }
  if (ec) {
    throw util::IoError("cannot read spool directory '" + dir_ +
                        "': " + ec.message());
  }
  std::sort(numbers.begin(), numbers.end());
  std::vector<std::string> ids;
  for (const std::uint64_t n : numbers) {
    ids.push_back("job-" + std::to_string(n));
  }
  return ids;
}

std::string Spool::allocate_id() {
  return "job-" + std::to_string(next_id_++);
}

}  // namespace cadapt::serve

// perfbench_trace: the traced half of the benchmark (perfbench/NOTES.md),
// plus the helpers run.py needs that only the library can provide (the
// seeded report synthesizer and the closed-loop serve clients).
//
// The traced passes call each layer's public functions directly and wrap
// every call in an obs::SpanSet span; durable I/O goes through TimingIo, an
// IoBackend decorator handed to the library via the existing `io` seams.
// Every pass also writes the artifact the untraced program would write and
// compares bytes, so a trace that measured different work is an error.
//
//   perfbench_trace sweep  --out-dir D MANIFEST...   traced ratio/sort pass
//   perfbench_trace report --cells N --seed S --dir D [--synth-only]
//   perfbench_trace serve  --interactive M --interactive-ref R
//                          --batch M --batch-ref R --seconds T --dir D
//                          [--socket PATH]           (external daemon)
//   perfbench_trace io-selftest --dir D
//
// Each subcommand prints one JSON object of metrics on stdout; exit 3 on
// any error or output mismatch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/adaptive_sort.hpp"
#include "algos/funnelsort.hpp"
#include "algos/fw.hpp"
#include "algos/mm.hpp"
#include "algos/sim_data.hpp"
#include "algos/sort.hpp"
#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/provenance.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/montecarlo.hpp"
#include "obs/span.hpp"
#include "paging/address_space.hpp"
#include "paging/block_run.hpp"
#include "paging/ca_machine.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/generators.hpp"
#include "profile/square_approx.hpp"
#include "profile/transforms.hpp"
#include "profile/worst_case.hpp"
#include "report/binary_io.hpp"
#include "report/cell_store.hpp"
#include "robust/io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;

using Metrics = std::map<std::string, double>;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs::steady_now_ns() - t0_ns) * 1e-9;
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void print_metrics(const Metrics& metrics,
                   const std::vector<std::string>& findings = {}) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":" + buf;
  }
  out += ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + obs::json_escape(findings[i]) + "\"";
  }
  out += "]}";
  std::cout << out << "\n";
}

// ---- timing IoBackend decorator -------------------------------------------

/// Splits durable I/O into write and fsync time (everything else the
/// writers do between calls is encoding). Counters are atomic: the serve
/// daemon commits from its pool threads.
class TimingIo final : public robust::IoBackend {
 public:
  struct Totals {
    std::uint64_t io_ns = 0;  ///< every call, write and fsync included
    std::uint64_t write_ns = 0;
    std::uint64_t write_bytes = 0;
    std::uint64_t fsync_ns = 0;
    std::uint64_t fsync_count = 0;

    Totals operator-(const Totals& o) const {
      return {io_ns - o.io_ns, write_ns - o.write_ns,
              write_bytes - o.write_bytes, fsync_ns - o.fsync_ns,
              fsync_count - o.fsync_count};
    }
  };

  explicit TimingIo(robust::IoBackend& inner) : inner_(inner) {}

  int open_trunc(const char* path) override {
    return timed(nullptr, [&] { return inner_.open_trunc(path); });
  }
  int open_append(const char* path) override {
    return timed(nullptr, [&] { return inner_.open_append(path); });
  }
  std::int64_t write(int fd, const void* data, std::size_t size) override {
    const std::int64_t n =
        timed(&write_ns_, [&] { return inner_.write(fd, data, size); });
    if (n > 0) write_bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int fsync(int fd) override {
    ++fsync_count_;
    return timed(&fsync_ns_, [&] { return inner_.fsync(fd); });
  }
  int close(int fd) override {
    return timed(nullptr, [&] { return inner_.close(fd); });
  }
  std::int64_t seek_end(int fd) override {
    return timed(nullptr, [&] { return inner_.seek_end(fd); });
  }
  int rename(const char* from, const char* to) override {
    return timed(nullptr, [&] { return inner_.rename(from, to); });
  }
  int remove(const char* path) override {
    return timed(nullptr, [&] { return inner_.remove(path); });
  }
  int fsync_parent(const char* path) override {
    ++fsync_count_;
    return timed(&fsync_ns_, [&] { return inner_.fsync_parent(path); });
  }

  Totals totals() const {
    return {io_ns_.load(), write_ns_.load(), write_bytes_.load(),
            fsync_ns_.load(), fsync_count_.load()};
  }

 private:
  template <typename F>
  auto timed(std::atomic<std::uint64_t>* slot, F&& call) -> decltype(call()) {
    const std::uint64_t t0 = obs::steady_now_ns();
    auto result = call();
    const std::uint64_t dt = obs::steady_now_ns() - t0;
    io_ns_ += dt;
    if (slot != nullptr) *slot += dt;
    return result;
  }

  robust::IoBackend& inner_;
  std::atomic<std::uint64_t> io_ns_{0};
  std::atomic<std::uint64_t> write_ns_{0};
  std::atomic<std::uint64_t> write_bytes_{0};
  std::atomic<std::uint64_t> fsync_ns_{0};
  std::atomic<std::uint64_t> fsync_count_{0};
};

void add_io_metrics(Metrics& m, const TimingIo::Totals& io) {
  m["robust.fsync_count"] += static_cast<double>(io.fsync_count);
  m["robust.fsync_s"] += ns_to_s(io.fsync_ns);
  m["robust.write_bytes"] += static_cast<double>(io.write_bytes);
}

// ---- span bookkeeping -----------------------------------------------------

/// Self time per span name: a span's duration minus its children's.
std::map<std::string, double> self_seconds(const obs::SpanSet& spans) {
  std::map<std::string, double> self;
  const auto& records = spans.records();
  for (const obs::SpanRecord& r : records) {
    self[r.name] += ns_to_s(r.duration_ns);
    if (r.parent != obs::kNoParent) {
      self[records[r.parent].name] -= ns_to_s(r.duration_ns);
    }
  }
  return self;
}

/// Total duration of the root spans: the time the spans account for.
double root_seconds(const obs::SpanSet& spans) {
  double total = 0;
  for (const obs::SpanRecord& r : spans.records()) {
    if (r.parent == obs::kNoParent) total += ns_to_s(r.duration_ns);
  }
  return total;
}

double span_seconds(const obs::SpanSet& spans, std::size_t id) {
  return ns_to_s(spans.records()[id].duration_ns);
}

/// The ledger check: the share of `wall` no layer span covers. Less than
/// 95% attributed is reported as a finding, never hidden.
void close_ledger(Metrics& m, std::vector<std::string>& findings,
                  const std::string& workload, double wall,
                  double attributed) {
  const double unattributed = wall > 0 ? (wall - attributed) / wall : 0;
  m["unattributed_frac"] = unattributed;
  if (unattributed > 0.05) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: only %.1f%% of the traced wall time is attributed to "
                  "layers",
                  workload.c_str(), 100.0 * (1.0 - unattributed));
    findings.emplace_back(buf);
  }
}

// ---- ratio cells: profile draw vs engine ----------------------------------

/// Every call the engine made on a trial's box source, run-length
/// collapsed, so the same calls can be replayed on a fresh copy of the
/// source and timed alone.
struct OpLog {
  struct Op {
    char kind;  // 'b' next, 'r' next_run, 'p' peek_block, 's' skip_repeats
    std::uint64_t n;
  };
  std::vector<Op> ops;
  std::uint64_t deliveries = 0;  ///< next/next_run calls that returned boxes
  std::uint64_t delivered_boxes = 0;

  void add(char kind, std::uint64_t n = 1) {
    if (kind != 's' && !ops.empty() && ops.back().kind == kind) {
      ops.back().n += n;
    } else {
      ops.push_back({kind, n});
    }
  }
};

class RecordingSource final : public profile::BoxSource {
 public:
  RecordingSource(std::unique_ptr<profile::BoxSource> inner, OpLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::optional<profile::BoxSize> next() override {
    auto box = inner_->next();
    log_->add('b');
    if (box) {
      ++log_->deliveries;
      ++log_->delivered_boxes;
    }
    return box;
  }
  std::optional<profile::BoxRun> next_run() override {
    auto run = inner_->next_run();
    log_->add('r');
    if (run) {
      ++log_->deliveries;
      log_->delivered_boxes += run->count;
    }
    return run;
  }
  bool provides_blocks() const override { return inner_->provides_blocks(); }
  std::optional<profile::SubtreeBlock> peek_block() override {
    log_->add('p');
    return inner_->peek_block();
  }
  void skip_repeats(std::uint64_t m) override {
    log_->add('s', m);
    inner_->skip_repeats(m);
  }

 private:
  std::unique_ptr<profile::BoxSource> inner_;
  OpLog* log_;
};

/// Repeats the logged calls on `source`.
void replay_ops(profile::BoxSource& source, const OpLog& log) {
  for (const OpLog::Op& op : log.ops) {
    for (std::uint64_t i = 0; i < (op.kind == 's' ? 1 : op.n); ++i) {
      switch (op.kind) {
        case 'b':
          source.next();
          break;
        case 'r':
          source.next_run();
          break;
        case 'p':
          source.peek_block();
          break;
        default:
          source.skip_repeats(op.n);
      }
    }
  }
}

std::shared_ptr<const profile::BoxDistribution> make_distribution(
    const campaign::ProfileSpec& spec, const model::RegularParams& params) {
  if (spec.dist == "geometric") {
    return std::make_shared<profile::GeometricPowers>(
        params.b, static_cast<double>(params.a), 0,
        static_cast<unsigned>(spec.uargs.at(0)));
  }
  if (spec.dist == "uniform-powers") {
    return std::make_shared<profile::UniformPowers>(
        params.b, static_cast<unsigned>(spec.uargs.at(0)),
        static_cast<unsigned>(spec.uargs.at(1)));
  }
  if (spec.dist == "bimodal") {
    return std::make_shared<profile::Bimodal>(spec.uargs.at(0),
                                              spec.uargs.at(1), spec.farg);
  }
  if (spec.dist == "point") {
    return std::make_shared<profile::PointMass>(spec.uargs.at(0));
  }
  if (spec.dist == "uniform-range") {
    return std::make_shared<profile::UniformRange>(spec.uargs.at(0),
                                                   spec.uargs.at(1));
  }
  throw std::runtime_error("unknown iid distribution " + spec.dist);
}

/// The source factory campaign::run_cell builds for a ratio cell.
engine::TrialSourceFactory ratio_source_factory(const campaign::Cell& cell) {
  const model::RegularParams& p = cell.algo.params;
  switch (cell.profile.kind) {
    case campaign::ProfileKind::kWorst:
      return core::worst_profile_source(p, cell.n);
    case campaign::ProfileKind::kShuffled:
      return core::shuffled_census_source(p, cell.n);
    case campaign::ProfileKind::kShifted:
      return core::cyclic_shift_source(p, cell.n);
    case campaign::ProfileKind::kPerturb:
      return core::size_perturb_source(
          p, cell.n, profile::uniform_real_perturb(cell.profile.farg));
    case campaign::ProfileKind::kIid:
      return core::iid_source(make_distribution(cell.profile, p));
    default:
      throw std::runtime_error("profile " + cell.profile.token +
                               " has no box source to trace");
  }
}

std::string profile_family(const campaign::ProfileSpec& spec) {
  switch (spec.kind) {
    case campaign::ProfileKind::kWorst:
      return "worst";
    case campaign::ProfileKind::kShuffled:
      return "shuffled";
    case campaign::ProfileKind::kIid:
      return spec.dist == "point" ? "point" : "iid";
    default:
      return "other";
  }
}

// ---- sort cells: capture / replay / direct ---------------------------------
// Mirrors the program runner of campaign/cell_runner.cpp call for call, so
// the traced report can be compared byte for byte with the CLI's.

profile::SourceFactory sort_profile_factory(const campaign::ProfileSpec& spec,
                                            std::uint64_t trial_seed) {
  switch (spec.kind) {
    case campaign::ProfileKind::kConst: {
      const std::uint64_t size = spec.uargs.at(0);
      return [size] {
        return std::make_unique<profile::VectorSource>(
            std::vector<profile::BoxSize>(64, size));
      };
    }
    case campaign::ProfileKind::kUniform: {
      auto dist = std::make_shared<profile::UniformRange>(spec.uargs.at(0),
                                                          spec.uargs.at(1));
      util::Rng rng(util::hash_combine(trial_seed, 0x50f17eull));
      return [dist, rng]() mutable {
        return std::make_unique<profile::DistributionSource>(*dist,
                                                             rng.split());
      };
    }
    case campaign::ProfileKind::kSawtooth: {
      const auto boxes = profile::inner_square_profile(
          profile::sawtooth_profile(spec.uargs.at(0), spec.uargs.at(1)));
      return [boxes] { return std::make_unique<profile::VectorSource>(boxes); };
    }
    case campaign::ProfileKind::kMWorst: {
      const std::uint64_t a = spec.uargs.at(0), b = spec.uargs.at(1);
      const std::uint64_t n = spec.uargs.at(2), scale = spec.uargs.at(3);
      return [a, b, n, scale] {
        return std::make_unique<profile::WorstCaseSource>(a, b, n, scale);
      };
    }
    default:
      throw std::runtime_error("profile " + spec.token +
                               " is not a sort profile");
  }
}

bool run_program(const std::string& token, paging::Machine& machine,
                 std::uint64_t keys, std::uint64_t input_seed,
                 const std::function<std::uint64_t()>& box_hint) {
  paging::AddressSpace space(machine.block_size());
  util::Rng rng(input_seed);
  if (token == "adaptive" || token == "funnel" || token == "merge2") {
    algos::SimVector<std::int64_t> data(machine, space,
                                        static_cast<std::size_t>(keys));
    for (std::size_t i = 0; i < keys; ++i) {
      data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 24));
    }
    if (token == "adaptive") {
      algos::adaptive_merge_sort(machine, space, data, box_hint);
    } else if (token == "funnel") {
      algos::funnelsort(machine, space, data);
    } else {
      algos::merge_sort(machine, space, data);
    }
    for (std::size_t i = 1; i < keys; ++i) {
      if (data.raw(i - 1) > data.raw(i)) return false;
    }
    return true;
  }
  const auto n = static_cast<std::size_t>(std::stoull(token.substr(3)));
  if (token.rfind("mm:", 0) == 0) {
    algos::SimMatrix<double> a(machine, space, n, n);
    algos::SimMatrix<double> b(machine, space, n, n);
    algos::SimMatrix<double> c(machine, space, n, n);
    std::vector<double> a_raw(n * n), b_raw(n * n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        a.raw(r, col) = a_raw[r * n + col] = static_cast<double>(rng.below(64));
        b.raw(r, col) = b_raw[r * n + col] = static_cast<double>(rng.below(64));
      }
    }
    algos::MmScratch scratch(machine, space);
    algos::MatView<double> cv(c), av(a), bv(b);
    algos::mm_scan(cv, av, bv, scratch);
    const std::vector<double> want = algos::mm_reference(a_raw, b_raw, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        if (c.raw(r, col) != want[r * n + col]) return false;
      }
    }
    return true;
  }
  algos::SimMatrix<double> d(machine, space, n, n);
  std::vector<double> d_raw(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      const double w = r == col ? 0.0 : static_cast<double>(1 + rng.below(64));
      d.raw(r, col) = d_raw[r * n + col] = w;
    }
  }
  algos::MatView<double> dv(d);
  algos::fw_recursive(dv);
  const std::vector<double> want = algos::fw_reference(std::move(d_raw), n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      if (d.raw(r, col) != want[r * n + col]) return false;
    }
  }
  return true;
}

std::uint64_t program_units(const std::string& token, std::uint64_t keys) {
  if (token.rfind("mm:", 0) == 0 || token.rfind("fw:", 0) == 0) {
    const std::uint64_t n = std::stoull(token.substr(3));
    return n * n;
  }
  return keys;
}

// ---- the traced sweep pass (ratio and sort workloads) ----------------------

struct SweepTally {
  double draw_s = 0;          // probe: the trial's source calls, alone
  double probe_s = 0;         // wall spent in probes (excluded from wall)
  std::uint64_t deliveries = 0;
  std::uint64_t delivered_boxes = 0;
  std::map<std::string, double> family_engine_s;
  std::map<std::string, double> family_boxes;
  std::vector<double> cell_s;
  double replay_s = 0, generic_replay_s = 0;
  std::uint64_t replays = 0, fast_walks = 0, replayed_runs = 0;
  double trace_bytes = 0;
};

std::vector<robust::TrialRecord> traced_ratio_cell(
    const campaign::Cell& cell, const campaign::CellRunOptions& options,
    obs::SpanSet& spans, SweepTally& tally, std::vector<OpLog>& logs) {
  const engine::TrialSourceFactory base = ratio_source_factory(cell);
  OpLog log;
  engine::McOptions mc;
  mc.semantics = options.semantics;
  mc.max_boxes = options.max_boxes;
  const engine::RobustTrialRunner runner = engine::make_regular_trial_runner(
      cell.algo.params, cell.n,
      [base, &log](util::Rng& rng) -> std::unique_ptr<profile::BoxSource> {
        return std::make_unique<RecordingSource>(base(rng), &log);
      },
      mc);
  engine::McOptions trial_options;
  trial_options.seed = cell.seed;

  std::vector<robust::TrialRecord> records;
  const std::uint64_t t0 = obs::steady_now_ns();
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    log = OpLog{};
    const std::size_t id = spans.open("engine.trial");
    records.push_back(
        engine::run_single_trial(trial_options, runner, trial, false));
    spans.close(id);
    logs.push_back(std::move(log));
  }
  tally.cell_s.push_back(seconds_since(t0));
  return records;
}

/// Probe: rebuild each trial's source and repeat the engine's calls on it,
/// timed alone. Runs outside every span and is excluded from the pass's
/// wall time.
void probe_ratio_cell(const campaign::Cell& cell,
                      const std::vector<robust::TrialRecord>& records,
                      const std::vector<OpLog>& logs, SweepTally& tally) {
  const engine::TrialSourceFactory base = ratio_source_factory(cell);
  double draw = 0;
  const std::uint64_t p0 = obs::steady_now_ns();
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    const std::uint64_t d0 = obs::steady_now_ns();
    util::Rng rng(engine::derive_trial_seed(cell.seed, trial, 0));
    const std::unique_ptr<profile::BoxSource> source = base(rng);
    replay_ops(*source, logs[trial]);
    draw += seconds_since(d0);
    tally.deliveries += logs[trial].deliveries;
    tally.delivered_boxes += logs[trial].delivered_boxes;
  }
  tally.probe_s += seconds_since(p0);
  tally.draw_s += draw;

  const std::string family = profile_family(cell.profile);
  double boxes = 0;
  for (const robust::TrialRecord& r : records) {
    boxes += static_cast<double>(r.boxes);
  }
  tally.family_engine_s[family] += std::max(tally.cell_s.back() - draw, 0.0);
  tally.family_boxes[family] += boxes;
}

std::vector<robust::TrialRecord> traced_sort_cell(
    const campaign::Cell& cell, const campaign::CellRunOptions& options,
    obs::SpanSet& spans, SweepTally& tally) {
  const std::string token = cell.sort;
  const std::uint64_t keys = options.keys, block = options.block;
  const std::uint64_t units = program_units(token, keys);
  const bool capture = options.capture_trace;
  const bool replayable = capture && token != "adaptive";
  const paging::CaConfig config = campaign::ca_config_for(cell, options);
  const std::uint64_t t0 = obs::steady_now_ns();

  paging::BlockRunTrace trace;
  bool verified = false;
  if (replayable) {
    obs::ScopedSpan span(&spans, "paging.capture");
    paging::BlockRunRecorder recorder(block);
    verified = run_program(token, recorder, keys, cell.seed, nullptr);
    trace = recorder.take();
    tally.trace_bytes += static_cast<double>(
        trace.runs().size() * sizeof(paging::BlockRun) +
        trace.replay_steps().size() *
            sizeof(paging::BlockRunTrace::ReplayStep));
  }

  const engine::RobustTrialRunner runner =
      [&](std::uint64_t trial_seed, robust::FaultInjector&) {
        const std::uint64_t input_seed = capture ? cell.seed : trial_seed;
        const std::size_t setup = spans.open("paging.setup");
        paging::CaMachine machine(
            std::make_unique<profile::CyclingSource>(
                sort_profile_factory(cell.profile, trial_seed)),
            block, /*record_boxes=*/false, /*recorder=*/nullptr, config);
        spans.close(setup);
        engine::RunResult r;
        if (replayable) {
          const std::size_t id = spans.open("paging.replay");
          machine.replay_trace(trace);
          spans.close(id);
          const double s = span_seconds(spans, id);
          tally.replay_s += s;
          ++tally.replays;
          tally.replayed_runs += trace.runs().size();
          if (machine.last_replay_path() == paging::ReplayPath::kFastWalk) {
            ++tally.fast_walks;
          } else {
            tally.generic_replay_s += s;
          }
          r.completed = verified;
        } else {
          obs::ScopedSpan span(&spans, "algos.direct");
          r.completed = run_program(token, machine, keys, input_seed, [&] {
            return machine.current_box_size();
          });
        }
        r.boxes = machine.boxes_started();
        r.ratio = static_cast<double>(machine.misses());
        r.unit_ratio = static_cast<double>(machine.misses()) /
                       static_cast<double>(units);
        return r;
      };
  engine::McOptions trial_options;
  trial_options.seed = cell.seed;
  std::vector<robust::TrialRecord> records;
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    obs::ScopedSpan span(&spans, "campaign.trial");
    records.push_back(
        engine::run_single_trial(trial_options, runner, trial, false));
  }
  tally.cell_s.push_back(seconds_since(t0));
  return records;
}

int cmd_sweep(const std::string& out_dir,
              const std::vector<std::string>& manifests) {
  TimingIo tio(robust::system_io());
  obs::SpanSet spans;
  SweepTally tally;
  Metrics m;
  std::vector<std::string> findings;
  std::vector<campaign::Plan> plans;

  // The traced pass: sequential, one span per layer call.
  const std::uint64_t pass0 = obs::steady_now_ns();
  for (std::size_t mi = 0; mi < manifests.size(); ++mi) {
    campaign::Plan plan;
    {
      obs::ScopedSpan span(&spans, "campaign.plan");
      plan = campaign::expand_plan(
          campaign::parse_manifest_file(manifests[mi]));
    }
    const campaign::CellRunOptions options =
        campaign::cell_options_from(plan.manifest);
    std::vector<campaign::CellResult> cells;
    for (const campaign::Cell& cell : plan.cells) {
      std::vector<robust::TrialRecord> records;
      std::vector<OpLog> logs;
      {
        obs::ScopedSpan span(&spans, "campaign.cell");
        records = cell.sort.empty()
                      ? traced_ratio_cell(cell, options, spans, tally, logs)
                      : traced_sort_cell(cell, options, spans, tally);
      }
      if (cell.sort.empty()) probe_ratio_cell(cell, records, logs, tally);
      obs::ScopedSpan span(&spans, "stats.aggregate");
      cells.push_back(campaign::aggregate_cell(cell, records, plan.config_hash,
                                               plan.manifest.unit_progress));
    }
    campaign::Report report;
    {
      obs::ScopedSpan span(&spans, "stats.fits");
      report = campaign::assemble_report(plan, std::move(cells), 1, 0, false,
                                         robust::CancelReason::kNone, 0);
    }
    {
      obs::ScopedSpan span(&spans, "report.write");
      campaign::write_report_file(
          out_dir + "/traced_" + std::to_string(mi) + ".jsonl", report, tio);
    }
    plans.push_back(std::move(plan));
  }
  const double traced_wall = seconds_since(pass0) - tally.probe_s;

  // The same work untraced, in-process: the overhead baseline and the
  // byte-identity check of the traced reports.
  const std::uint64_t plain0 = obs::steady_now_ns();
  for (std::size_t mi = 0; mi < manifests.size(); ++mi) {
    campaign::SweepOptions options;
    options.jobs = 1;
    options.timing = false;
    const campaign::Plan plan =
        campaign::expand_plan(campaign::parse_manifest_file(manifests[mi]));
    campaign::write_report_file(
        out_dir + "/plain_" + std::to_string(mi) + ".jsonl",
        campaign::run_sweep(plan, options));
  }
  const double plain_wall = seconds_since(plain0);
  std::uint64_t mismatches = 0;
  for (std::size_t mi = 0; mi < manifests.size(); ++mi) {
    const std::string idx = std::to_string(mi);
    if (read_file(out_dir + "/traced_" + idx + ".jsonl") !=
        read_file(out_dir + "/plain_" + idx + ".jsonl")) {
      ++mismatches;
      findings.push_back("traced report of " + manifests[mi] +
                         " differs from run_sweep's");
    }
  }

  // Pool occupancy at 4 jobs: summed cell time over jobs x wall.
  double busy_ns = 0, pool_wall = 0;
  for (const campaign::Plan& plan : plans) {
    campaign::SweepOptions options;
    options.jobs = 4;
    const std::uint64_t w0 = obs::steady_now_ns();
    const campaign::Report report = campaign::run_sweep(plan, options);
    pool_wall += seconds_since(w0);
    for (const campaign::CellResult& c : report.cells) {
      busy_ns += static_cast<double>(c.wall_ns);
    }
  }

  const std::map<std::string, double> self = self_seconds(spans);
  auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  m["profile.draw_s"] = tally.draw_s;
  m["profile.boxes_per_run"] =
      tally.deliveries > 0 ? static_cast<double>(tally.delivered_boxes) /
                                 static_cast<double>(tally.deliveries)
                           : 0;
  m["engine.trial_s"] = std::max(self_of("engine.trial") - tally.draw_s, 0.0);
  for (const char* family : {"worst", "shuffled", "iid", "point"}) {
    const double s = tally.family_engine_s[family];
    m[std::string("engine.boxes_per_s.") + family] =
        s > 0 ? tally.family_boxes[family] / s : 0;
  }
  m["paging.capture_s"] = self_of("paging.capture");
  m["paging.trace_bytes"] = tally.trace_bytes;
  m["paging.replay_s"] = tally.replay_s;
  m["paging.replay_runs_per_s"] =
      tally.replay_s > 0 ? static_cast<double>(tally.replayed_runs) /
                               tally.replay_s
                         : 0;
  m["paging.fast_walk_frac"] =
      tally.replays > 0 ? static_cast<double>(tally.fast_walks) /
                              static_cast<double>(tally.replays)
                        : 0;
  m["paging.generic_replay_s"] = tally.generic_replay_s;
  m["algos.direct_trial_s"] = self_of("algos.direct");
  m["campaign.plan_s"] = self_of("campaign.plan");
  m["campaign.cell_s_p50"] = quantile(tally.cell_s, 0.5);
  m["campaign.cell_s_max"] = quantile(tally.cell_s, 1.0);
  m["campaign.aggregate_s"] =
      self_of("stats.aggregate") + self_of("stats.fits");
  m["pool.busy_frac"] = pool_wall > 0 ? busy_ns * 1e-9 / (4.0 * pool_wall) : 0;
  add_io_metrics(m, tio.totals());
  m["mismatches"] = static_cast<double>(mismatches);
  close_ledger(m, findings, "sweep", traced_wall, root_seconds(spans));
  m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0;
  print_metrics(m, findings);
  return mismatches == 0 ? 0 : 3;
}

// ---- the report workload ---------------------------------------------------

/// A seeded N-cell ratio campaign split round-robin into two shards.
std::vector<campaign::Report> synth_shards(std::uint64_t cells,
                                           std::uint64_t seed) {
  static const char* kAlgos[] = {"8:4:1", "7:4:1", "4:2:1"};
  static const std::uint64_t kB[] = {4, 4, 2};
  static const char* kProfiles[] = {"worst", "shuffled", "iid:geometric:6",
                                    "iid:point:16"};
  std::vector<campaign::Report> shards(2);
  for (std::uint64_t s = 0; s < 2; ++s) {
    campaign::Report& r = shards[s];
    r.name = "perfbench_report";
    r.config_hash = util::hash_combine(seed, cells);
    r.cells_total = cells;
    r.shards = 2;
    r.shard_index = s;
    r.env = campaign::build_provenance();
    r.cells.reserve(cells / 2 + 1);
  }
  util::Rng rng(seed);
  for (std::uint64_t i = 0; i < cells; ++i) {
    campaign::CellResult c;
    const std::size_t a = i % 3;
    c.index = i;
    c.algo = kAlgos[a];
    c.profile = kProfiles[(i / 3) % 4];
    c.k = static_cast<unsigned>(1 + (i / 12) % 12);
    c.n = 1;
    for (unsigned j = 0; j < c.k; ++j) c.n *= kB[a];
    c.trials = c.completed = 4;
    double sum = 0;
    for (std::uint64_t t = 0; t < c.trials; ++t) {
      c.samples.push_back(1.0 + rng.uniform01() * static_cast<double>(c.k));
      sum += c.samples.back();
    }
    std::vector<double> sorted = c.samples;
    std::sort(sorted.begin(), sorted.end());
    c.mean = sum / static_cast<double>(c.trials);
    c.ci_lo = sorted.front();
    c.ci_hi = sorted.back();
    c.q50 = quantile(sorted, 0.5);
    c.q90 = quantile(sorted, 0.9);
    c.q95 = quantile(sorted, 0.95);
    c.boxes_mean = static_cast<double>(c.n) * (1.0 + rng.uniform01());
    shards[i % 2].cells.push_back(std::move(c));
  }
  return shards;
}

struct EncodingTimes {
  double write_s = 0, encode_s = 0, fsync_s = 0, load_s = 0, merge_s = 0;
  double bytes = 0;
};

void add_encoding_metrics(Metrics& m, const std::string& prefix,
                          const EncodingTimes& t, double cells) {
  m[prefix + "write_cells_per_s"] = t.write_s > 0 ? cells / t.write_s : 0;
  m[prefix + "encode_s"] = t.encode_s;
  m[prefix + "fsync_s"] = t.fsync_s;
  m[prefix + "load_cells_per_s"] = t.load_s > 0 ? cells / t.load_s : 0;
  m[prefix + "merge_cells_per_s"] = t.merge_s > 0 ? cells / t.merge_s : 0;
  m[prefix + "bytes_per_cell"] = cells > 0 ? t.bytes / cells : 0;
}

double file_size(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

int cmd_report(std::uint64_t cells, std::uint64_t seed, const std::string& dir,
               bool synth_only) {
  std::vector<campaign::Report> shards = synth_shards(cells, seed);
  std::vector<report::CellStore> stores;
  for (const campaign::Report& r : shards) {
    stores.push_back(report::CellStore::from_report(r));
  }
  auto path = [&](const std::string& stem) { return dir + "/" + stem; };
  if (synth_only) {
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string stem = "shard" + std::to_string(s);
      report::save_store_file(path(stem + ".bin"), stores[s]);
      campaign::write_report_file(path(stem + ".jsonl"), shards[s]);
    }
    print_metrics({{"cells", static_cast<double>(cells)}});
    return 0;
  }

  TimingIo tio(robust::system_io());
  obs::SpanSet spans;
  Metrics m;
  std::vector<std::string> findings;
  const double n = static_cast<double>(cells);

  // One span per layer call; write spans are split by TimingIo into
  // write+fsync (robust) and the rest (encoding).
  auto timed_write = [&](const char* name, const std::function<void()>& call,
                         EncodingTimes& t) {
    const TimingIo::Totals io0 = tio.totals();
    const std::size_t id = spans.open(name);
    call();
    spans.close(id);
    const TimingIo::Totals io = tio.totals() - io0;
    const double s = span_seconds(spans, id);
    t.write_s += s;
    t.encode_s += s - ns_to_s(io.io_ns);
    t.fsync_s += ns_to_s(io.fsync_ns);
    return s;
  };
  auto timed = [&](const char* name, const std::function<void()>& call) {
    const std::size_t id = spans.open(name);
    call();
    spans.close(id);
    return span_seconds(spans, id);
  };

  const std::uint64_t pass0 = obs::steady_now_ns();
  EncodingTimes col, row;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string stem = "shard" + std::to_string(s);
    timed_write("report.columnar.write",
                [&] {
                  report::save_store_file(path(stem + ".bin"), stores[s], tio);
                },
                col);
    timed_write("report.jsonl.write",
                [&] {
                  campaign::write_report_file(path(stem + ".jsonl"), shards[s],
                                              tio);
                },
                row);
  }
  std::vector<report::CellStore> loaded_stores;
  std::vector<campaign::Report> loaded_reports;
  col.load_s = timed("report.columnar.load", [&] {
    for (int s = 0; s < 2; ++s) {
      loaded_stores.push_back(report::load_store_file(
          path("shard" + std::to_string(s) + ".bin")));
    }
  });
  row.load_s = timed("report.jsonl.load", [&] {
    for (int s = 0; s < 2; ++s) {
      loaded_reports.push_back(campaign::load_report_file(
          path("shard" + std::to_string(s) + ".jsonl")));
    }
  });
  report::CellStore merged_store;
  campaign::Report merged_report;
  col.merge_s = timed("report.columnar.merge", [&] {
    merged_store = report::CellStore::merge(std::move(loaded_stores));
  });
  row.merge_s = timed("report.jsonl.merge", [&] {
    merged_report = campaign::merge_reports(std::move(loaded_reports));
  });
  EncodingTimes commit;
  timed_write("report.columnar.write",
              [&] {
                report::save_store_file(path("merged.bin"), merged_store, tio);
              },
              commit);
  timed_write("report.jsonl.write",
              [&] {
                campaign::write_report_file(path("merged.jsonl"),
                                            merged_report, tio);
              },
              commit);
  EncodingTimes exported;
  const double export_s = timed_write(
      "report.export",
      [&] { merged_store.export_report_file(path("exported.jsonl"), tio); },
      exported);
  const double traced_wall = seconds_since(pass0);

  col.bytes = file_size(path("shard0.bin")) + file_size(path("shard1.bin"));
  row.bytes = file_size(path("shard0.jsonl")) + file_size(path("shard1.jsonl"));
  const bool same =
      read_file(path("exported.jsonl")) == read_file(path("merged.jsonl"));
  if (!same) findings.emplace_back("export of the columnar merge differs from "
                                   "the JSONL merge");

  // The same calls untraced (system_io, no spans): the overhead baseline.
  const std::uint64_t plain0 = obs::steady_now_ns();
  {
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string stem = "plain" + std::to_string(s);
      report::save_store_file(path(stem + ".bin"), stores[s]);
      campaign::write_report_file(path(stem + ".jsonl"), shards[s]);
    }
    std::vector<report::CellStore> ps;
    std::vector<campaign::Report> pr;
    for (int s = 0; s < 2; ++s) {
      const std::string stem = "plain" + std::to_string(s);
      ps.push_back(report::load_store_file(path(stem + ".bin")));
      pr.push_back(campaign::load_report_file(path(stem + ".jsonl")));
    }
    const report::CellStore ms = report::CellStore::merge(std::move(ps));
    const campaign::Report mr = campaign::merge_reports(std::move(pr));
    report::save_store_file(path("plain_merged.bin"), ms);
    campaign::write_report_file(path("plain_merged.jsonl"), mr);
    ms.export_report_file(path("plain_exported.jsonl"));
  }
  const double plain_wall = seconds_since(plain0);

  add_encoding_metrics(m, "report.columnar.", col, n);
  add_encoding_metrics(m, "report.jsonl.", row, n);
  m["report.export_s"] = export_s;
  add_io_metrics(m, tio.totals());
  m["mismatches"] = same ? 0 : 1;
  close_ledger(m, findings, "report", traced_wall, root_seconds(spans));
  m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0;
  print_metrics(m, findings);
  return same ? 0 : 3;
}

// ---- the serve workload: closed-loop clients -------------------------------

struct JobSample {
  bool interactive = false;
  bool ok = false;
  double submit_s = 0, first_cell_s = 0, tail_s = 0, rtt_s = 0;
  std::uint64_t cells = 0;
};

/// One closed-loop tenant: submit, stream the results to the last report
/// byte, compare the report with the one-shot reference, repeat.
void client_loop(const std::string& socket, const serve::SubmitRequest& request,
                 const std::string& reference, bool interactive,
                 std::uint64_t deadline_ns, std::vector<JobSample>& out) {
  while (obs::steady_now_ns() < deadline_ns) {
    JobSample s;
    s.interactive = interactive;
    try {
      const std::uint64_t t0 = obs::steady_now_ns();
      const obs::Event ack =
          serve::roundtrip(socket, serve::submit_event(request));
      const std::uint64_t t1 = obs::steady_now_ns();
      std::uint64_t t2 = 0;
      if (ack.type == "job_accepted") {
        const serve::ResultsEnd end = serve::stream_results(
            socket, ack.str_or("job", ""), [&](const std::string&) {
              if (t2 == 0) t2 = obs::steady_now_ns();
              ++s.cells;
            });
        const std::uint64_t t3 = obs::steady_now_ns();
        if (t2 == 0) t2 = t3;
        s.ok = end.done.type == "job_done" && end.report_bytes == reference;
        s.submit_s = ns_to_s(t1 - t0);
        s.first_cell_s = ns_to_s(t2 - t1);
        s.tail_s = ns_to_s(t3 - t2);
        s.rtt_s = ns_to_s(t3 - t0);
      }
    } catch (const std::exception&) {
      s.ok = false;
    }
    out.push_back(s);
  }
}

/// The daemon of a traced session, run in this process so its durable
/// I/O can go through TimingIo. Stopped and joined on every exit path by
/// requesting the process cancel token its accept loop polls.
class InProcessDaemon {
 public:
  explicit InProcessDaemon(const serve::DaemonOptions& options)
      : thread_([options] {
          try {
            serve::run_daemon(options);
          } catch (const std::exception& e) {
            std::cerr << "perfbench_trace: daemon: " << e.what() << "\n";
          }
        }) {}
  ~InProcessDaemon() { stop(); }

  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    robust::process_cancel_token().request(robust::CancelReason::kExternal);
    thread_.join();
  }

 private:
  std::thread thread_;
};

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const std::string interactive_text = read_file(flags.at("interactive"));
  const std::string batch_text = read_file(flags.at("batch"));
  const std::string interactive_ref = read_file(flags.at("interactive-ref"));
  const std::string batch_ref = read_file(flags.at("batch-ref"));
  const double seconds = std::stod(flags.at("seconds"));
  const std::string dir = flags.at("dir");
  const bool external = flags.count("socket") != 0;
  const std::string socket = external ? flags.at("socket") : dir + "/d.sock";
  Metrics m;
  std::vector<std::string> findings;

  TimingIo tio(robust::system_io());
  std::optional<InProcessDaemon> daemon;
  if (!external) {
    serve::DaemonOptions options;
    options.socket_path = socket;
    options.core.spool_dir = dir + "/spool";
    options.core.jobs = 4;
    options.core.timing = false;
    options.core.io = &tio;
    daemon.emplace(options);
    obs::Event hello("hello");
    for (int attempt = 0;; ++attempt) {
      try {
        serve::roundtrip(socket, hello);
        break;
      } catch (const std::exception&) {
        if (attempt > 500) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    // The daemon parses and expands every submitted manifest; time that
    // layer call here, once per manifest.
    obs::SpanSet spans;
    for (const std::string* text : {&interactive_text, &batch_text}) {
      obs::ScopedSpan span(&spans, "campaign.plan");
      std::istringstream in(*text);
      campaign::expand_plan(campaign::parse_manifest(in));
    }
    m["campaign.plan_s"] = root_seconds(spans);
  }

  std::vector<std::vector<JobSample>> samples(4);
  std::vector<std::thread> clients;
  const std::uint64_t t0 = obs::steady_now_ns();
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (int c = 0; c < 4; ++c) {
    serve::SubmitRequest request;
    const bool interactive = c < 3;
    request.manifest_text = interactive ? interactive_text : batch_text;
    request.client = interactive ? "interactive" + std::to_string(c) : "batch";
    clients.emplace_back([&, request, interactive, c] {
      client_loop(socket, request, interactive ? interactive_ref : batch_ref,
                  interactive, deadline, samples[static_cast<std::size_t>(c)]);
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall = seconds_since(t0);
  if (daemon) daemon->stop();

  std::vector<double> rtt, submit, first_cell, tail;
  double busy = 0, batch_cells = 0, all_cells = 0;
  std::uint64_t jobs = 0, failed = 0, interactive_jobs = 0;
  for (const auto& per_client : samples) {
    for (const JobSample& s : per_client) {
      ++jobs;
      if (!s.ok) {
        ++failed;
        continue;
      }
      busy += s.rtt_s;
      all_cells += static_cast<double>(s.cells);
      if (s.interactive) {
        ++interactive_jobs;
        rtt.push_back(s.rtt_s);
        submit.push_back(s.submit_s);
        first_cell.push_back(s.first_cell_s);
        tail.push_back(s.tail_s);
      } else {
        batch_cells += static_cast<double>(s.cells);
      }
    }
  }
  m["jobs"] = static_cast<double>(jobs);
  m["failed"] = static_cast<double>(failed);
  m["wall_s"] = wall;
  m["jobs_per_s"] = static_cast<double>(jobs - failed) / wall;
  m["rtt_samples"] = static_cast<double>(interactive_jobs);
  m["rtt_p50_s"] = quantile(rtt, 0.5);
  m["rtt_p90_s"] = quantile(rtt, 0.9);
  m["serve.submit_s"] = quantile(submit, 0.5);
  m["serve.first_cell_s"] = quantile(first_cell, 0.5);
  m["serve.tail_s"] = quantile(tail, 0.5);
  // One batch tenant of four equal weights is owed a quarter of the cells.
  m["serve.batch_share"] = all_cells > 0 ? (batch_cells / all_cells) / 0.25 : 0;
  if (!external) {
    add_io_metrics(m, tio.totals());
    // Client threads are the root of every serve measurement: the time a
    // client spends outside a job round trip is not attributed to a layer.
    close_ledger(m, findings, "serve", 4.0 * wall, busy);
  }
  print_metrics(m, findings);
  return failed == 0 ? 0 : 3;
}

// ---- the TimingIo self-test ------------------------------------------------

/// Report bytes written through TimingIo must equal those written
/// through the plain backend, for both encodings.
int cmd_io_selftest(const std::string& dir) {
  const std::vector<campaign::Report> shards = synth_shards(500, 7);
  const report::CellStore store = report::CellStore::from_report(shards[0]);
  TimingIo tio(robust::system_io());
  campaign::write_report_file(dir + "/plain.jsonl", shards[0]);
  campaign::write_report_file(dir + "/timed.jsonl", shards[0], tio);
  report::save_store_file(dir + "/plain.bin", store);
  report::save_store_file(dir + "/timed.bin", store, tio);
  const bool same =
      read_file(dir + "/plain.jsonl") == read_file(dir + "/timed.jsonl") &&
      read_file(dir + "/plain.bin") == read_file(dir + "/timed.bin");
  const TimingIo::Totals t = tio.totals();
  print_metrics({{"identical", same ? 1 : 0},
                 {"fsync_count", static_cast<double>(t.fsync_count)},
                 {"write_bytes", static_cast<double>(t.write_bytes)}});
  return same && t.fsync_count > 0 ? 0 : 3;
}

std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int first, std::vector<std::string>& positional) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (key == "synth-only") {
        flags[key] = "1";
      } else if (i + 1 < argc) {
        flags[key] = argv[++i];
      } else {
        throw std::runtime_error("flag " + arg + " needs a value");
      }
    } else {
      positional.push_back(arg);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_trace sweep|report|serve|io-selftest ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    std::vector<std::string> positional;
    const auto flags = parse_flags(argc, argv, 2, positional);
    if (cmd == "sweep") return cmd_sweep(flags.at("out-dir"), positional);
    if (cmd == "report") {
      return cmd_report(std::stoull(flags.at("cells")),
                        std::stoull(flags.at("seed")), flags.at("dir"),
                        flags.count("synth-only") != 0);
    }
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "io-selftest") return cmd_io_selftest(flags.at("dir"));
    std::cerr << "perfbench_trace: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace " << cmd << ": error: " << e.what() << "\n";
    return 3;
  }
}

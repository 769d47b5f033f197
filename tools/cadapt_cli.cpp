// cadapt — command-line driver for the cache-adaptive analysis toolkit.
//
// Usage: cadapt <command> [arguments] [flags]; `cadapt help` lists the
// commands. Every command's flags, defaults and help live in one table
// (tools/cli_flags.cpp); the code below reads values without defaults.
//
// Exit codes (docs/ROBUSTNESS.md): 0 success, 2 usage error, 3 input
// error (unreadable/malformed file), 4 internal check failure, 1 other.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "cli_flags.hpp"
#include "campaign/cell_runner.hpp"
#include "campaign/gate.hpp"
#include "campaign/manifest.hpp"
#include "campaign/provenance.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "report/binary_io.hpp"
#include "report/cell_store.hpp"
#include "report/jsonl_io.hpp"
#include "paging/policy.hpp"
#include "core/cadapt.hpp"
#include "core/report.hpp"
#include "core/workloads.hpp"
#include "obs/event.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "profile/profile_io.hpp"
#include "robust/backoff.hpp"
#include "robust/cancel.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "robust/io.hpp"
#include "sched/worksteal.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "util/args.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace {

using namespace cadapt;

model::RegularParams params_from(const util::ArgParser& args) {
  model::RegularParams p;
  p.a = args.get_u64("a");
  p.b = args.get_u64("b");
  p.c = args.get_double("c");
  p.validate();
  return p;
}

engine::BoxSemantics semantics_from(const util::ArgParser& args) {
  return args.get_string("semantics") == "budgeted"
             ? engine::BoxSemantics::kBudgeted
             : engine::BoxSemantics::kOptimistic;
}

// "(deadline)" / "(budget)" / "(external)" — campaigns truncated by the
// box budget keep printing "(budget)", which existing scripts grep for.
std::string truncate_reason_text(robust::CancelReason reason) {
  if (reason == robust::CancelReason::kNone) {
    reason = robust::CancelReason::kBudget;
  }
  return std::string("(") + robust::cancel_reason_name(reason) + ")";
}

// The robustness flags `mc` and `sweep` share (the `robust` rows of
// tools/cli_flags.cpp) plus the process-wide SIGINT/SIGTERM token. Owns
// the fault plan, faulty I/O backend and deadline watchdog the options
// point into, so it must outlive the campaign — and, for sweep, the
// report commit, which a plan arming the io_* sites also hits.
struct RobustFlags {
  robust::FaultPlan plan;
  std::optional<robust::FaultyIo> faulty_io;
  std::optional<robust::Watchdog> watchdog;

  /// The backend every durable write goes through.
  robust::IoBackend& io() {
    return faulty_io ? *faulty_io : robust::system_io();
  }

  /// Fill engine::McOptions or campaign::SweepOptions; `seed` seeds the
  /// backoff jitter and the default --fault-seed. Call it BEFORE building
  /// runners from the options: they capture the token pointer by value.
  template <typename Options>
  void apply(const util::ArgParser& args, std::uint64_t seed, Options& opts) {
    opts.max_attempts =
        static_cast<std::uint32_t>(args.get_u64("retries")) + 1;
    opts.budget.deadline_ns = args.get_u64("deadline-ms") * 1'000'000ull;
    opts.budget.max_total_boxes = args.get_u64("box-budget");
    opts.backoff.base_ns = args.get_u64("retry-backoff-ms") * 1'000'000ull;
    opts.backoff.seed = seed;
    opts.checkpoint_path = args.get_string("checkpoint");
    opts.resume = args.has("resume");
    if (opts.resume && opts.checkpoint_path.empty()) {
      throw util::UsageError("--resume requires --checkpoint");
    }
    const std::string fault_spec = args.get_string("fault");
    if (!fault_spec.empty()) {
      plan = robust::FaultPlan::parse_spec(
          fault_spec, args.has("fault-seed") ? args.get_u64("fault-seed")
                                             : seed ^ 0xFA17ull);
      opts.faults = &plan;
      if (robust::FaultyIo::plan_arms_io(plan)) {
        faulty_io.emplace(robust::system_io(), &plan);
        opts.io = &*faulty_io;
      }
    }
    // The first SIGINT/SIGTERM cancels cooperatively (the second falls
    // back to the default kill): in-flight work is discarded, committed
    // checkpoint records survive, and --resume completes bit-identically.
    // A --deadline-ms watchdog shares the token (an external token
    // suppresses run_sweep's internal one). Box budgets stay boundary-
    // checked: their truncation point must be deterministic.
    robust::install_signal_cancel();
    if (opts.budget.deadline_ns != 0) {
      watchdog.emplace(robust::process_cancel_token(),
                       opts.budget.deadline_ns);
    }
    opts.cancel = &robust::process_cancel_token();
  }
};

// Flag values are usage errors, not input errors: re-throw a token
// grammar's ParseError from `parse` as UsageError.
template <typename Parse>
auto flag_value(Parse&& parse) {
  try {
    return parse();
  } catch (const util::ParseError& e) {
    throw util::UsageError(e.what());
  }
}

// A --profile token in the manifest `profiles` grammar of `workload`
// (src/campaign/manifest.hpp).
campaign::ProfileSpec parse_profile(const std::string& token,
                                    campaign::Workload workload) {
  return flag_value(
      [&] { return campaign::parse_profile_token(token, workload); });
}

// A run's problem size: --n, which must be a power of b, or b^--kmax.
std::uint64_t n_from(const util::ArgParser& args,
                     const model::RegularParams& p) {
  const std::uint64_t n =
      args.has("n") ? args.get_u64("n")
                    : util::ipow(p.b, static_cast<unsigned>(
                                          args.get_u64("kmax")));
  if (!util::is_power_of(n, p.b)) {
    throw util::UsageError("--n must be a power of b; n=" + std::to_string(n));
  }
  return n;
}

// The trial named on the command line (the `cell` rows of
// tools/cli_flags.cpp), as the campaign cell `mc` runs and `trace --sort`
// traces, plus the options its runner consumes.
struct CellArgs {
  campaign::Cell cell;
  campaign::CellRunOptions options;
};

CellArgs cell_args_from(const util::ArgParser& args,
                        const model::RegularParams& p) {
  CellArgs ca;
  ca.cell.seed = args.get_u64("seed");
  ca.options.timing = !args.has("no-timing");
  if (!args.has("sort")) {
    if (args.has("capture-trace")) {
      throw util::UsageError("--capture-trace requires --sort");
    }
    if (args.has("per-access")) {
      throw util::UsageError("--per-access requires --sort");
    }
    ca.cell.algo.params = p;
    ca.cell.n = n_from(args, p);
    ca.cell.profile =
        parse_profile(args.get_string("profile"), campaign::Workload::kRatio);
    ca.options.semantics = semantics_from(args);
    ca.options.per_box = args.has("per-box");
    return ca;
  }
  ca.cell.sort = args.get_string("sort");
  flag_value([&] { campaign::validate_program_token(ca.cell.sort, 0); });
  ca.cell.profile = parse_profile(
      args.has("profile") ? args.get_string("profile") : "const:64",
      campaign::Workload::kSort);
  // Canonical policy token: labels and checkpoint fingerprints are
  // spelling-independent; "" keeps the plain-LRU machine (docs/PAGING.md).
  const std::string policy = args.get_string("policy");
  if (!policy.empty()) {
    ca.cell.policy =
        flag_value([&] { return paging::parse_policy_token(policy).token(); });
  }
  const std::string tiers = args.get_string("tiers");
  if (!tiers.empty()) {
    ca.options.tiers =
        flag_value([&] { return campaign::parse_tiers_token(tiers); });
  }
  ca.options.keys = args.get_u64("keys");
  ca.options.block = args.get_u64("block");
  ca.options.per_access = args.has("per-access");
  ca.options.capture_trace = args.has("capture-trace");
  return ca;
}

// The cell in words: the header of `mc` and `trace --sort`, and the
// cell part of the `mc` checkpoint fingerprint.
std::string describe(const CellArgs& ca) {
  const campaign::Cell& cell = ca.cell;
  std::ostringstream os;
  if (cell.sort.empty()) {
    os << cell.algo.params.name() << " on " << cell.profile.token
       << " boxes, n = " << cell.n << ", "
       << (ca.options.semantics == engine::BoxSemantics::kBudgeted
               ? "budgeted"
               : "optimistic")
       << " semantics";
    return os.str();
  }
  os << cell.sort << " on " << cell.profile.token
     << " boxes, keys = " << ca.options.keys
     << ", block = " << ca.options.block;
  if (!cell.policy.empty()) os << ", policy = " << cell.policy;
  if (ca.options.tiers.set) os << ", tiers = " << ca.options.tiers.token();
  if (ca.options.capture_trace) os << ", trace replay";
  return os.str();
}

// `trace --sort`: one instrumented program run with a PagingRecorder
// attached — per-size-class hit/miss/eviction tables instead of the
// ratio-workload event stream.
int run_trace_sort(const CellArgs& ca) {
  obs::PagingRecorder recorder;
  const engine::RunResult r = campaign::run_program_traced(
      ca.cell, ca.options, ca.cell.seed, recorder);
  std::cout << describe(ca) << ", seed = " << ca.cell.seed << ":\n"
            << "  verified: " << (r.completed ? "yes" : "NO")
            << "  boxes: " << r.boxes << "  I/Os: "
            << util::format_double(r.ratio, 0) << "  I/Os per unit: "
            << util::format_double(r.unit_ratio, 3) << "\n";
  core::print_paging_summary(std::cout, recorder);
  return 0;
}

// `trace`: run the engine with the observability layer attached, emit the
// JSONL event stream, then *re-parse every emitted line* and check the
// conservation invariant (Σ progress + Σ scan == problem units) against
// the run's own aggregates. The trace a user diffs is thereby known to be
// well-formed and complete — tests/CMakeLists.txt smoke-tests the final
// "all lines parse; conservation OK" line.
int run_trace(const util::ArgParser& args, const model::RegularParams& p) {
  if (args.has("sort")) return run_trace_sort(cell_args_from(args, p));
  const std::uint64_t n = n_from(args, p);
  const std::uint64_t trials = args.get_u64("trials");
  const std::uint64_t seed = args.get_u64("seed");
  const std::string out_path = args.get_string("out");
  const campaign::ProfileSpec spec =
      parse_profile(args.get_string("profile"), campaign::Workload::kRatio);
  const bool worst = spec.kind == campaign::ProfileKind::kWorst;
  if (!worst && spec.kind != campaign::ProfileKind::kShuffled &&
      spec.kind != campaign::ProfileKind::kIid) {
    throw util::UsageError("trace --profile must be worst, shuffled or "
                           "iid:DIST:...; got '" + spec.token + "'");
  }
  const engine::BoxSemantics semantics = semantics_from(args);
  const std::string sem = args.get_string("semantics");
  // The Monte-Carlo stage samples the profile's distribution; `worst` is
  // deterministic, so its stage samples the shuffled census of n.
  const auto dist = worst ? core::census_distribution(p, n) : flag_value([&] {
    return campaign::make_distribution(spec, p, n);
  });

  obs::MemorySink sink;

  // Stage 1: one fully instrumented execution (per-box events).
  std::unique_ptr<profile::BoxSource> source;
  if (worst) {
    // Cycle M_{a,b}(n) so the run completes for every parameter set.
    source = std::make_unique<profile::CyclingSource>([&p, n] {
      return std::make_unique<profile::WorstCaseSource>(p.a, p.b, n);
    });
  } else {
    source = std::make_unique<profile::DistributionSource>(*dist,
                                                           util::Rng(seed));
  }
  // The conservation sums below hold for --runs events too.
  const bool runs_mode = args.has("runs");
  obs::ExecRecorder exec_rec(&sink, runs_mode ? obs::BoxGranularity::kRuns
                                              : obs::BoxGranularity::kBoxes);
  const engine::RunResult r =
      engine::run_regular(p, n, *source, engine::ScanPlacement::kEnd,
                          /*max_boxes=*/UINT64_C(1) << 40,
                          /*adversary_seed=*/0, semantics, &exec_rec);

  // Stage 2 (--trials >= 2): Monte-Carlo over `dist` with per-trial events.
  obs::McRecorder mc_rec(&sink, /*record_timing=*/!args.has("no-timing"));
  const bool ran_mc = trials >= 2;
  engine::McSummary mc;
  if (ran_mc) {
    engine::McOptions opts;
    opts.trials = trials;
    opts.seed = seed;
    opts.semantics = semantics;
    opts.recorder = &mc_rec;
    mc = engine::run_monte_carlo_iid(p, n, *dist, opts);
  }

  // Serialize, then validate what was serialized: every line must re-parse
  // and re-encode to the same bytes (the identity obs/event.hpp documents;
  // a structural compare would reject an integral double such as a ratio
  // of exactly 1, which re-parses as a u64), and the per-box stream must
  // sum to the run's aggregates.
  std::vector<std::string> lines;
  lines.reserve(sink.events().size());
  std::uint64_t box_events = 0, trial_events = 0;
  std::uint64_t sum_progress = 0, sum_scan = 0;
  for (const auto& event : sink.events()) {
    lines.push_back(obs::to_jsonl(event));
    obs::Event back;
    std::string error;
    if (!obs::parse_jsonl(lines.back(), &back, &error))
      throw util::CheckError("trace line failed to parse: " + error);
    if (obs::to_jsonl(back) != lines.back())
      throw util::CheckError("trace line did not round-trip: " + lines.back());
    if (event.type == "box") {
      ++box_events;
      sum_progress += event.u64_or("progress", 0);
      sum_scan += event.u64_or("scan", 0);
    } else if (event.type == "runs") {
      box_events += event.u64_or("count", 0);
      sum_progress += event.u64_or("progress", 0);
      sum_scan += event.u64_or("scan", 0);
    } else if (event.type == "bulk") {
      box_events += event.u64_or("boxes", 0);
      sum_progress += event.u64_or("progress", 0);
      sum_scan += event.u64_or("scan", 0);
    } else if (event.type == "trial") {
      ++trial_events;
    }
  }
  CADAPT_CHECK_MSG(box_events == r.boxes && box_events == exec_rec.boxes(),
                   "box events " << box_events << " != boxes " << r.boxes);
  CADAPT_CHECK_MSG(sum_progress == r.leaves &&
                       sum_progress == exec_rec.total_progress(),
                   "progress sum " << sum_progress << " != leaves "
                                   << r.leaves);
  CADAPT_CHECK_MSG(sum_scan == exec_rec.total_scan_advance(),
                   "scan sum " << sum_scan << " != aggregate "
                               << exec_rec.total_scan_advance());
  const std::uint64_t units = model::problem_units(p, n);
  CADAPT_CHECK_MSG(!r.completed || sum_progress + sum_scan == units,
                   "conservation: progress " << sum_progress << " + scan "
                                             << sum_scan << " != units "
                                             << units);
  CADAPT_CHECK_MSG(trial_events == (ran_mc ? trials : 0),
                   "trial events " << trial_events << " != trials");

  // Route the streams: JSONL to --out (summary to stdout), or JSONL to
  // stdout (summary to stderr) so `cadapt trace | jq` stays clean.
  std::ostream* summary_os = &std::cout;
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    if (!file) throw util::IoError("cannot open --out " + out_path);
    for (const auto& line : lines) file << line << '\n';
  } else {
    for (const auto& line : lines) std::cout << line << '\n';
    summary_os = &std::cerr;
  }

  *summary_os << p.name() << " on " << spec.token << " profile, n = " << n
              << ", " << sem << " semantics:\n"
              << "  completed: " << (r.completed ? "yes" : "NO")
              << "  boxes: " << r.boxes
              << "  ratio: " << util::format_double(r.ratio, 3) << "\n";
  core::print_trace_summary(*summary_os, exec_rec);
  if (ran_mc) {
    *summary_os << "\nMonte-Carlo stage (" << trials << " trials, "
                << dist->name() << "):\n";
    core::print_trial_summary(*summary_os, mc_rec);
    *summary_os << "mean ratio: " << util::format_double(mc.ratio.mean(), 3)
                << "  incomplete: " << mc.incomplete << "\n";
  }
  *summary_os << lines.size()
              << " events; all lines parse; conservation OK\n";
  return 0;
}

// `mc`: a robust Monte-Carlo campaign (docs/ROBUSTNESS.md) over one
// campaign cell. The summary never hides a degradation: failed and
// truncated are always printed.
int run_mc(const util::ArgParser& args, const model::RegularParams& p) {
  const CellArgs ca = cell_args_from(args, p);
  const campaign::Cell& cell = ca.cell;
  const bool sort = !cell.sort.empty();
  engine::McOptions opts;
  opts.trials = args.get_u64("trials");
  opts.seed = cell.seed;
  opts.checkpoint_every = args.get_u64("checkpoint-every");
  RobustFlags flags;
  flags.apply(args, opts.seed, opts);

  // Checkpoint fingerprint: everything that shapes a trial besides
  // (trials, seed) — the cell's canonical tokens plus the robust flags —
  // so a resume with different parameters is refused, not silently
  // blended. --per-box and --per-access are absent by design: they are
  // bit-identical by contract, so resuming across them must be allowed.
  // Backoff never changes a trial's RESULT, but it changes the persisted
  // backoff_ns schedule.
  opts.config = describe(ca) + "; " +
                campaign::run_fingerprint(opts.max_attempts, opts.faults,
                                          opts.backoff.base_ns);

  // --workers N: a private N-thread pool for the trials; summaries are
  // deterministic across pool sizes (trial-index-keyed aggregation).
  std::optional<util::ThreadPool> pool;
  if (args.has("workers")) {
    pool.emplace(static_cast<std::size_t>(args.get_u64("workers")));
    opts.pool = &*pool;
  }

  campaign::CellRunOptions options = ca.options;
  options.faults = opts.faults;
  options.cancel = opts.cancel;
  const engine::McSummary s = engine::run_monte_carlo_robust(
      opts, campaign::make_cell_runner(cell, options));

  std::cout << "Monte-Carlo campaign of " << describe(ca) << ":\n"
            << "  trials: " << s.trials_run << " of " << s.trials_requested
            << " (" << (sort ? "verified " : "completed ") << s.ratio.count()
            << ", incomplete " << s.incomplete << ", failed " << s.failed
            << ")\n";
  if (!sort && s.incomplete > 0) {
    // Say WHY trials were cut off: the box cap is a tunable, an exhausted
    // source is a workload property.
    std::cout << "  incomplete breakdown: " << s.capped << " hit the box cap, "
              << (s.incomplete - s.capped) << " exhausted the source\n";
  }
  std::cout << "  truncated: "
            << (s.truncated ? "YES " + truncate_reason_text(s.truncate_reason)
                            : "no")
            << "\n";
  if (s.ratio.count() > 0 && sort) {
    std::cout << "  mean I/Os: " << util::format_double(s.ratio.mean(), 2)
              << " +- " << util::format_double(s.ratio.ci95(), 2)
              << "  mean I/Os per unit: "
              << util::format_double(s.unit_ratio.mean(), 4)
              << "  mean boxes: " << util::format_double(s.boxes.mean(), 2)
              << "\n";
  } else if (s.ratio.count() > 0) {
    std::cout << "  mean ratio: " << util::format_double(s.ratio.mean(), 4)
              << " +- " << util::format_double(s.ratio.ci95(), 4)
              << "  mean boxes: " << util::format_double(s.boxes.mean(), 2)
              << "\n";
  }
  const std::uint64_t shown =
      std::min<std::uint64_t>(s.errors.size(), args.get_u64("errors-shown"));
  for (std::uint64_t i = 0; i < shown; ++i) {
    const robust::TrialError& e = s.errors[i];
    std::cout << "  error: trial " << e.trial << " seed " << e.seed
              << " attempts " << e.attempts << " ["
              << robust::error_category_name(e.category) << "] " << e.what
              << "\n";
  }
  if (s.errors.size() > shown) {
    std::cout << "  ... " << (s.errors.size() - shown) << " more errors\n";
  }
  return 0;
}

// ---- parallel (docs/PARALLEL.md) ------------------------------------

std::vector<std::uint64_t> scale_from(const util::ArgParser& args) {
  std::vector<std::uint64_t> out;
  const std::string spec = args.get_string("scale");
  if (spec.empty()) return out;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, ',')) {
    std::uint64_t workers = 0;
    const auto [ptr, ec] = std::from_chars(
        token.data(), token.data() + token.size(), workers);
    if (ec != std::errc{} || ptr != token.data() + token.size() ||
        workers == 0) {
      throw util::UsageError(
          "--scale expects a comma-separated list of positive worker "
          "counts, got '" + token + "'");
    }
    out.push_back(workers);
  }
  return out;
}

// `parallel`: drive the seeded work-stealing engine (docs/PARALLEL.md).
// Without --scale: one deterministic P-worker execution with per-worker
// stats and the conservation check. With --scale: the BENCH_parallel.json
// artifact, whose fields `cadapt help parallel` explains.
int run_parallel_cmd(const util::ArgParser& args) {
  const model::RegularParams p = params_from(args);
  const unsigned k = static_cast<unsigned>(args.get_u64("k"));
  const std::uint64_t n = util::ipow(p.b, k);

  sched::ParallelOptions popt;
  popt.workers = args.get_u64("workers");
  popt.seed = args.get_u64("seed");
  const std::string carve = args.get_string("carve");
  popt.carve = carve == "lru"     ? sched::Policy::kGlobalLru
               : carve == "flush" ? sched::Policy::kPeriodicFlush
                                  : sched::Policy::kStaticEqual;
  // 0 means "equal to the epoch", the parallel analog of
  // sched::SimOptions::flush_period (src/sched/shared_cache.hpp).
  popt.flush_period = args.get_u64("flush-period");
  popt.epoch_rounds = args.get_u64("epoch");
  popt.split_depth = args.get_u64("split-depth");
  popt.max_boxes = args.get_u64("boxes");
  const std::string placement = args.get_string("placement");
  popt.placement = placement == "interleaved"
                       ? engine::ScanPlacement::kInterleaved
                   : placement == "adversary"
                       ? engine::ScanPlacement::kAdversaryMatched
                       : engine::ScanPlacement::kEnd;
  popt.semantics = semantics_from(args);
  popt.adversary_seed = args.get_u64("adversary-seed");

  // The box stream: i.i.d. uniform sizes, re-seeded identically for
  // every worker count so each P sees the same global stream.
  const std::uint64_t box_lo = args.get_u64("box-lo");
  const std::uint64_t box_hi = args.get_u64("box-hi");
  if (box_hi < box_lo) {
    throw util::UsageError("--box-hi must be >= --box-lo");
  }
  const profile::UniformRange dist(box_lo, box_hi);
  const auto fresh_source = [&dist, &popt] {
    return profile::DistributionSource(dist,
                                       util::Rng(popt.seed ^ 0xB0c5ull));
  };

  const std::vector<std::uint64_t> scale = scale_from(args);
  if (scale.empty()) {
    auto source = fresh_source();
    const sched::ParallelResult r =
        sched::parallel_run_to_completion(p, n, source, popt);
    std::cout << p.name() << ", n = " << n << ", P = " << popt.workers
              << ", carve = " << carve
              << ", seed = " << popt.seed << ":\n"
              << "  completed: " << (r.merged.completed ? "yes" : "NO")
              << "  rounds: " << r.rounds << "  epochs: " << r.epochs
              << "  split depth: " << r.split_depth << "  tasks: "
              << r.tasks_spawned << "\n"
              << "  steals: " << r.steals << " (failed " << r.failed_steals
              << ", splits " << r.splits << ")\n"
              << "  ratio: " << util::format_double(r.merged.ratio, 3)
              << "  unit ratio: "
              << util::format_double(r.merged.unit_ratio, 3) << "\n";
    util::Table table({"worker", "boxes", "idle", "progress", "scan",
                       "tasks", "steals", "blocks"});
    for (std::size_t w = 0; w < r.workers.size(); ++w) {
      const sched::WorkerStats& s = r.workers[w];
      table.row()
          .cell(std::uint64_t{w})
          .cell(s.boxes)
          .cell(s.idle_boxes)
          .cell(s.progress)
          .cell(s.scan_advance)
          .cell(s.tasks_run)
          .cell(s.steals)
          .cell(s.slice_blocks);
    }
    table.print(std::cout);
    const std::uint64_t units = model::problem_units(p, n);
    std::cout << "conservation: " << r.units_done() << " of " << units
              << " units"
              << (r.merged.completed && r.units_done() == units ? " OK"
                                                                : "")
              << "\n";
    return 0;
  }

  // --scale mode: the BENCH_parallel.json artifact.
  const bool timing = !args.has("no-timing");
  campaign::Cell cell;
  cell.sort = args.get_string("sort");
  cell.profile =
      parse_profile(args.get_string("profile"), campaign::Workload::kSort);
  flag_value([&] { campaign::validate_program_token(cell.sort, 0); });
  cell.seed = popt.seed;
  cell.trials = args.get_u64("trials");
  campaign::CellRunOptions cell_options;
  cell_options.keys = args.get_u64("keys");
  cell_options.block = args.get_u64("block");
  cell_options.timing = timing;

  // The cell's trials on `workers` threads of the shared trial loop.
  const auto cell_wall_ns = [&cell, &cell_options,
                             timing](std::uint64_t workers) -> std::uint64_t {
    const std::uint64_t start = obs::steady_now_ns();
    (void)campaign::run_cell_shared(cell, cell_options,
                                    static_cast<std::size_t>(workers));
    return timing ? obs::steady_now_ns() - start : 0;
  };

  // Baseline: the sequential engine and the cell on one thread.
  sched::ParallelOptions base = popt;
  base.workers = 1;
  auto base_source = fresh_source();
  const sched::ParallelResult baseline =
      sched::parallel_run_to_completion(p, n, base_source, base);
  const std::uint64_t base_wall = cell_wall_ns(1);

  std::vector<obs::Event> lines;
  {
    obs::Event env("parallel_env");
    env.u64("version", 1)
        .str("algo", p.name())
        .u64("n", n)
        .u64("k", k)
        .str("carve", carve)
        .u64("epoch", popt.epoch_rounds)
        .u64("seed", popt.seed)
        .u64("box_lo", box_lo)
        .u64("box_hi", box_hi)
        .str("cell_sort", cell.sort)
        .str("cell_profile", cell.profile.token)
        .u64("cell_keys", cell_options.keys)
        .u64("cell_trials", cell.trials)
        .u64("cores", std::thread::hardware_concurrency());
    lines.push_back(env);
  }

  util::Table table({"P", "rounds", "sim speedup", "steals", "vs bound",
                     "extra-miss", "cell wall ms", "wall speedup"});
  for (const std::uint64_t workers : scale) {
    sched::ParallelOptions o = popt;
    o.workers = workers;
    auto source = fresh_source();
    const sched::ParallelResult r =
        sched::parallel_run_to_completion(p, n, source, o);
    CADAPT_CHECK_MSG(r.merged.completed,
                     "parallel run did not complete at P = " << workers
                                                             << " — raise "
                                                                "--boxes");
    const double sim_speedup = static_cast<double>(baseline.rounds) /
                               static_cast<double>(r.rounds);
    // CR-style extra-miss term: the capacity overhead of running on P
    // slices — worker-rounds consumed beyond the sequential count,
    // relative to it (docs/PARALLEL.md). Can be negative: the inner-
    // square decomposition sometimes packs slices better than one big
    // box.
    const double extra_miss =
        (static_cast<double>(workers) * static_cast<double>(r.rounds) -
         static_cast<double>(baseline.rounds)) /
        static_cast<double>(baseline.rounds);
    // Steal bound: O(P * depth) with depth = split depth + tree height.
    const std::uint64_t steal_bound = workers * (r.split_depth + k);
    const double vs_bound =
        steal_bound == 0 ? 0.0
                         : static_cast<double>(r.steals) /
                               static_cast<double>(steal_bound);
    const std::uint64_t wall = cell_wall_ns(workers);
    const double wall_speedup =
        (timing && wall != 0)
            ? static_cast<double>(base_wall) / static_cast<double>(wall)
            : 0.0;

    obs::Event ev("parallel_scale");
    ev.u64("workers", workers)
        .u64("rounds", r.rounds)
        .u64("epochs", r.epochs)
        .u64("steals", r.steals)
        .u64("failed_steals", r.failed_steals)
        .u64("splits", r.splits)
        .u64("split_depth", r.split_depth)
        .u64("tasks", r.tasks_spawned)
        .f64("sim_speedup", sim_speedup)
        .f64("extra_miss_ratio", extra_miss)
        .u64("steal_bound", steal_bound)
        .f64("steals_vs_bound", vs_bound)
        .u64("cell_wall_ns", wall)
        .f64("cell_wall_speedup", wall_speedup);
    lines.push_back(ev);

    table.row()
        .cell(workers)
        .cell(r.rounds)
        .cell(sim_speedup, 2)
        .cell(r.steals)
        .cell(vs_bound, 3)
        .cell(extra_miss, 3)
        .cell(static_cast<double>(wall) / 1e6, 1)
        .cell(wall_speedup, 2);
  }

  std::cout << p.name() << ", n = " << n << ", scale "
            << args.get_string("scale") << " (cell: " << cell.sort
            << " on " << cell.profile.token << ", " << cell_options.keys
            << " keys x " << cell.trials << " trials):\n";
  table.print(std::cout);

  if (args.has("json") || args.has("out")) {
    const std::string out_path = args.get_string("out");
    if (out_path.empty()) {
      for (const obs::Event& ev : lines) {
        std::cout << obs::to_jsonl(ev) << "\n";
      }
    } else {
      std::ofstream os(out_path);
      if (!os) throw util::IoError("cannot open --out " + out_path);
      for (const obs::Event& ev : lines) os << obs::to_jsonl(ev) << "\n";
      std::cout << "bench written to " << out_path << "\n";
    }
  }
  return 0;
}

// --trace F (sweep, serve): JSONL telemetry, or no sink without the flag.
struct TraceFlag {
  std::ofstream file;
  obs::JsonlSink sink{file};

  obs::TraceSink* open(const util::ArgParser& args) {
    const std::string path = args.get_string("trace");
    if (path.empty()) return nullptr;
    file.open(path);
    if (!file) throw util::IoError("cannot open --trace " + path);
    return &sink;
  }
};

int run_sweep_cmd(const util::ArgParser& args) {
  const std::string out_path = args.get_string("out");
  const bool binary = args.get_string("format") == "binary";

  // Function scope, not branch scope: the fault plan and faulty I/O
  // backend must outlive the report commit at the bottom.
  RobustFlags flags;

  // Both paths end in one columnar store: a merge loads every shard
  // (either encoding) through report::load_store_any, and a run's report
  // is converted once.
  report::CellStore store;
  if (args.has("merge")) {
    std::vector<report::CellStore> parts;
    parts.reserve(args.positionals().size());
    for (const std::string& path : args.positionals()) {
      parts.push_back(report::load_store_any(path));
    }
    const std::size_t part_count = parts.size();
    store = report::CellStore::merge(std::move(parts));
    std::cout << "merged " << part_count << " shard reports ("
              << store.cell_count() << " cells)\n";
  } else {
    if (args.positionals().size() != 1) {
      throw util::UsageError(
          "sweep takes one manifest path (or --merge with report paths)");
    }
    campaign::Manifest manifest =
        campaign::parse_manifest_file(args.positionals()[0]);
    // trace_replay enters the fingerprint (" replay=1"): a replay campaign
    // is a different campaign, never a silent substitute.
    if (args.has("capture-trace")) {
      if (manifest.workload != campaign::Workload::kSort) {
        throw util::UsageError("--capture-trace requires a sort-workload "
                               "manifest");
      }
      manifest.trace_replay = true;
    }
    const campaign::Plan plan = campaign::expand_plan(manifest);

    campaign::SweepOptions opts;
    opts.jobs = args.get_u64("jobs");
    opts.shards = args.get_u64("shards");
    opts.shard_index = args.get_u64("shard-index");
    opts.timing = !args.has("no-timing");
    opts.per_box = args.has("per-box");
    opts.per_access = args.has("per-access");
    flags.apply(args, manifest.seed, opts);

    TraceFlag trace;
    opts.trace = trace.open(args);

    const campaign::Report report = campaign::run_sweep(plan, opts);
    std::cout << "sweep '" << report.name << "' (config "
              << report.config_hash << "): ran "
              << report.cells.size() << " of " << report.cells_total
              << " cells";
    if (opts.shards > 1) {
      std::cout << " (shard " << opts.shard_index << "/" << opts.shards
                << ")";
    }
    if (report.truncated) {
      std::cout << ", TRUNCATED "
                << truncate_reason_text(report.truncate_reason);
    }
    std::cout << "\n";
    store = report::CellStore::from_report(report);
  }

  std::uint64_t completed = 0, incomplete = 0, capped = 0, failed = 0;
  for (std::size_t row = 0; row < store.cell_count(); ++row) {
    completed += store.completed[row];
    incomplete += store.incomplete[row];
    capped += store.capped[row];
    failed += store.failed[row];
  }
  std::cout << "  trials: " << completed << " completed, " << incomplete
            << " incomplete, " << failed << " failed\n";
  if (incomplete > 0) {
    std::cout << "  incomplete breakdown: " << capped << " hit the box cap, "
              << (incomplete - capped) << " exhausted the source\n";
  }
  if (!store.fits.empty()) {
    util::Table table({"algo", "profile", "exponent", "expected", "r^2"});
    for (const report::FitRow& fit : store.fits) {
      table.row()
          .cell(store.algo_dict.token(fit.algo_id))
          .cell(store.profile_dict.token(fit.profile_id))
          .cell(fit.exponent, 3)
          .cell(fit.expected, 3)
          .cell(fit.r2, 4);
    }
    std::cout << "power-law fits (mean ~ scale * n^exponent):\n";
    table.print(std::cout);
  }
  if (binary) {
    report::save_store_file(out_path, store, flags.io());
  } else {
    store.export_report_file(out_path, flags.io());
  }
  std::cout << "report written to " << out_path << "\n";

  const std::string baseline_path = args.get_string("baseline");
  if (!baseline_path.empty()) {
    const campaign::Report baseline =
        report::load_store_any(baseline_path).to_report();
    campaign::GateOptions gate_opts;
    gate_opts.rel_threshold = args.get_double("gate-rel");
    gate_opts.inject_factor = args.get_double("gate-inject");
    const campaign::GateResult verdict = campaign::gate_against_baseline(
        baseline, store.to_report(), gate_opts);
    campaign::print_gate(std::cout, verdict, gate_opts);
    if (!verdict.passed()) return 4;
  }
  return 0;
}

// ---- report family (docs/REPORT.md) --------------------------------

/// High-water RSS of this process, in bytes (ru_maxrss is KiB on Linux).
/// Monotonic over the process lifetime, so phase peaks must be sampled
/// in the order the phases run (columnar first in the bench below).
std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

int run_report_export_cmd(const util::ArgParser& args) {
  const report::CellStore store = report::load_store_any(args.positionals()[0]);
  const std::string out_path = args.get_string("out");
  if (out_path == "-") {
    store.export_report_stream(std::cout);
  } else {
    store.export_report_file(out_path);
    std::cout << "exported " << store.cell_count() << " cells to "
              << out_path << "\n";
  }
  return 0;
}

int run_report_import_cmd(const util::ArgParser& args) {
  const std::string& path = args.positionals()[0];
  const report::CellStore store = report::load_store_any(path);
  const std::string out_path =
      args.has("out") ? args.get_string("out") : path + ".bin";
  report::save_store_file(out_path, store);
  std::cout << "imported " << store.cell_count() << " cells ("
            << store.samples.size() << " samples) to " << out_path << "\n";
  return 0;
}

int run_report_info_cmd(const util::ArgParser& args) {
  const std::string& path = args.positionals()[0];
  const bool binary = report::is_binary_report_file(path);
  const report::CellStore store = report::load_store_any(path);
  std::cout << "format:      " << (binary ? "binary" : "jsonl") << " ("
            << std::filesystem::file_size(path) << " bytes)\n"
            << "campaign:    '" << store.name << "' (config "
            << store.config_hash << ", report version " << store.version
            << ")\n"
            << "cells:       " << store.cell_count() << " of "
            << store.cells_total;
  if (store.shards > 1) {
    std::cout << " (shard " << store.shard_index << "/" << store.shards
              << ")";
  }
  if (store.truncated) {
    std::cout << ", TRUNCATED ("
              << robust::cancel_reason_name(store.truncate_reason) << ")";
  }
  std::cout << "\n"
            << "samples:     " << store.samples.size() << "\n"
            << "dicts:       " << store.algo_dict.size() << " algo, "
            << store.profile_dict.size() << " profile, "
            << store.sort_dict.size() << " sort, "
            << store.policy_dict.size() << " policy\n"
            << "fits:        " << store.fits.size() << "\n"
            << "wall_ms:     " << store.wall_ms << "\n"
            << "env:         " << campaign::provenance_text(store.env)
            << "\n";
  return 0;
}

int run_report_merge_cmd(const util::ArgParser& args) {
  std::vector<report::CellStore> parts;
  for (const std::string& path : args.positionals()) {
    parts.push_back(report::load_store_any(path));
  }
  const std::size_t part_count = parts.size();
  const report::CellStore merged = report::CellStore::merge(std::move(parts));
  const std::string out_path = args.get_string("out");
  // Unlike sweep, the columnar family defaults to its native container.
  if (args.get_string("format") == "jsonl") {
    merged.export_report_file(out_path);
  } else {
    report::save_store_file(out_path, merged);
  }
  std::cout << "merged " << part_count << " shard reports ("
            << merged.cell_count() << " cells) to " << out_path << "\n";
  return 0;
}

// ---- report bench (BENCH_report.json) ------------------------------

/// Deterministic synthetic cell for the report bench: a pure function of
/// (seed, index, trials). Ratio cells only (algo set, sort empty) so the
/// merge recomputes power-law fits, exercising the full pipeline. The
/// mean follows ~n^0.585 so the fits converge on something paper-shaped.
void synth_bench_cell(std::uint64_t seed, std::uint64_t index,
                      std::uint64_t trials, campaign::CellResult& cell) {
  static constexpr const char* kAlgos[] = {"8:4:1", "7:4:1", "4:2:1"};
  static constexpr const char* kProfiles[] = {"worst", "shuffled",
                                              "iid:geometric:6"};
  std::uint64_t h = util::hash_combine(seed, index);
  cell.index = index;
  cell.algo = kAlgos[h % 3];
  cell.profile = kProfiles[(h >> 8) % 3];
  cell.sort.clear();
  cell.policy.clear();
  cell.k = static_cast<unsigned>(4 + index % 10);
  cell.n = std::uint64_t{1} << cell.k;
  cell.trials = trials;
  // Some cells lose a trial to the box cap / source exhaustion / a
  // contained failure, but at least one trial always completes (a fit
  // series rejects empty cells).
  cell.incomplete = (trials > 1 && (h >> 16) % 8 == 0) ? 1 : 0;
  cell.capped = (cell.incomplete != 0 && ((h >> 24) & 1) != 0) ? 1 : 0;
  cell.failed =
      (trials > cell.incomplete + 1 && (h >> 32) % 16 == 0) ? 1 : 0;
  cell.completed = trials - cell.incomplete - cell.failed;
  const double base = std::pow(static_cast<double>(cell.n), 0.585);
  cell.samples.clear();
  double sum = 0;
  std::uint64_t state = h;
  for (std::uint64_t t = 0; t < cell.completed; ++t) {
    const double u = static_cast<double>(util::splitmix64(state) >> 11) *
                     0x1.0p-53;
    const double sample = base * (0.95 + 0.1 * u);
    cell.samples.push_back(sample);
    sum += sample;
  }
  cell.mean = sum / static_cast<double>(cell.completed);
  cell.ci_lo = cell.mean * 0.98;
  cell.ci_hi = cell.mean * 1.02;
  std::vector<double> sorted = cell.samples;
  std::sort(sorted.begin(), sorted.end());
  const auto quantile = [&sorted](double q) {
    const std::size_t at = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[at];
  };
  cell.q50 = quantile(0.50);
  cell.q90 = quantile(0.90);
  cell.q95 = quantile(0.95);
  cell.boxes_mean = static_cast<double>(cell.n) * 1.5;
  cell.wall_ns = 0;
}

/// Fill the bench campaign's header fields on any report-shaped object
/// (CellStore and Report share the field names).
template <typename R>
void fill_bench_header(R& r, std::uint64_t seed, std::uint64_t cells,
                       std::uint64_t shard) {
  r.name = "report_bench";
  r.config_hash = seed;
  r.cells_total = cells;
  r.shards = 2;
  r.shard_index = shard;
  r.env = campaign::build_provenance();
}

struct BenchPath {
  double write_s = 0;
  double load_s = 0;
  double merge_s = 0;
  std::uint64_t bytes = 0;
  std::uint64_t peak_rss = 0;
};

int run_report_bench_cmd(const util::ArgParser& args) {
  const std::uint64_t cells = args.get_u64("cells");
  const std::uint64_t trials = args.get_u64("trials");
  const std::uint64_t seed = args.get_u64("seed");
  const std::string dir = args.get_string("dir");
  using clock = std::chrono::steady_clock;
  const auto secs = [](clock::time_point from) {
    return std::chrono::duration<double>(clock::now() - from).count();
  };
  const std::string bin_paths[2] = {dir + "/report_bench_shard0.bin",
                                    dir + "/report_bench_shard1.bin"};
  const std::string json_paths[2] = {dir + "/report_bench_shard0.json",
                                     dir + "/report_bench_shard1.json"};

  // Phase order matters: ru_maxrss is a process-lifetime high-water
  // mark, so the light (columnar) pipeline runs first — its sampled
  // peak is its own, and the JSONL phase's larger working set then
  // raises the mark to the JSONL peak.
  BenchPath columnar;
  std::uint64_t merged_cells = 0;
  {
    campaign::CellResult scratch;
    auto t = clock::now();
    for (std::uint64_t shard = 0; shard < 2; ++shard) {
      report::ColumnarWriter writer;
      fill_bench_header(writer.store(), seed, cells, shard);
      writer.reserve(cells / 2 + 1, (cells / 2 + 1) * trials);
      for (std::uint64_t i = shard; i < cells; i += 2) {
        synth_bench_cell(seed, i, trials, scratch);
        writer.append(scratch);
      }
      report::save_store_file(bin_paths[shard], writer.store());
    }
    columnar.write_s = secs(t);
    t = clock::now();
    std::vector<report::CellStore> parts;
    parts.push_back(report::load_store_file(bin_paths[0]));
    parts.push_back(report::load_store_file(bin_paths[1]));
    columnar.load_s = secs(t);
    t = clock::now();
    const report::CellStore merged =
        report::CellStore::merge(std::move(parts));
    columnar.merge_s = secs(t);
    merged_cells = merged.cell_count();
    columnar.bytes = std::filesystem::file_size(bin_paths[0]) +
                     std::filesystem::file_size(bin_paths[1]);
    columnar.peak_rss = peak_rss_bytes();
  }
  if (merged_cells != cells) {
    throw util::CheckError("report bench: columnar merge produced " +
                           std::to_string(merged_cells) + " cells, want " +
                           std::to_string(cells));
  }

  BenchPath jsonl;
  {
    auto t = clock::now();
    for (std::uint64_t shard = 0; shard < 2; ++shard) {
      campaign::Report shard_report;
      fill_bench_header(shard_report, seed, cells, shard);
      shard_report.cells.reserve(cells / 2 + 1);
      for (std::uint64_t i = shard; i < cells; i += 2) {
        campaign::CellResult cell;
        synth_bench_cell(seed, i, trials, cell);
        shard_report.cells.push_back(std::move(cell));
      }
      campaign::write_report_file(json_paths[shard], shard_report);
    }
    jsonl.write_s = secs(t);
    t = clock::now();
    std::vector<campaign::Report> parts;
    parts.push_back(campaign::load_report_file(json_paths[0]));
    parts.push_back(campaign::load_report_file(json_paths[1]));
    jsonl.load_s = secs(t);
    t = clock::now();
    const campaign::Report merged =
        campaign::merge_reports(std::move(parts));
    jsonl.merge_s = secs(t);
    if (merged.cells.size() != cells) {
      throw util::CheckError("report bench: jsonl merge produced " +
                             std::to_string(merged.cells.size()) +
                             " cells, want " + std::to_string(cells));
    }
    jsonl.bytes = std::filesystem::file_size(json_paths[0]) +
                  std::filesystem::file_size(json_paths[1]);
    jsonl.peak_rss = peak_rss_bytes();
  }
  if (!args.has("keep")) {
    for (const auto& path : {bin_paths[0], bin_paths[1], json_paths[0],
                             json_paths[1]}) {
      std::remove(path.c_str());
    }
  }

  const double n = static_cast<double>(cells);
  const double merge_load_speedup = (jsonl.load_s + jsonl.merge_s) /
                                    (columnar.load_s + columnar.merge_s);
  const double rss_ratio = static_cast<double>(jsonl.peak_rss) /
                           static_cast<double>(columnar.peak_rss);

  util::Table table({"path", "write Mc/s", "load Mc/s", "merge Mc/s",
                     "bytes/cell", "peak RSS MiB"});
  const auto emit_row = [&](const char* name, const BenchPath& p) {
    table.row()
        .cell(name)
        .cell(n / p.write_s / 1e6, 2)
        .cell(n / p.load_s / 1e6, 2)
        .cell(n / p.merge_s / 1e6, 2)
        .cell(static_cast<double>(p.bytes) / n, 1)
        .cell(static_cast<double>(p.peak_rss) / (1024.0 * 1024.0), 1);
  };
  emit_row("columnar", columnar);
  emit_row("jsonl", jsonl);
  std::cout << "report bench: " << cells << " cells, " << trials
            << " trials/cell, seed " << seed << "\n";
  table.print(std::cout);
  std::cout << "merge+load speedup: " << merge_load_speedup
            << "x, peak-RSS ratio: " << rss_ratio << "x\n";

  const auto path_event = [&](const char* name, const BenchPath& p) {
    obs::Event e{"report_bench_path"};
    e.str("path", name)
        .f64("write_s", p.write_s)
        .f64("load_s", p.load_s)
        .f64("merge_s", p.merge_s)
        .f64("write_cells_per_s", n / p.write_s)
        .f64("load_cells_per_s", n / p.load_s)
        .f64("merge_cells_per_s", n / p.merge_s)
        .u64("bytes", p.bytes)
        .u64("peak_rss_bytes", p.peak_rss);
    return e;
  };
  obs::Event head{"report_bench"};
  head.u64("version", 1)
      .u64("cells", cells)
      .u64("trials", trials)
      .u64("seed", seed)
      .u64("shards", 2);
  obs::Event summary{"report_bench_summary"};
  summary.f64("merge_load_speedup", merge_load_speedup)
      .f64("rss_ratio", rss_ratio)
      .f64("bytes_ratio", static_cast<double>(jsonl.bytes) /
                              static_cast<double>(columnar.bytes));
  const std::string out_path = args.get_string("out");
  if (!out_path.empty()) {
    std::string content = obs::to_jsonl(head) + "\n" +
                          obs::to_jsonl(path_event("columnar", columnar)) +
                          "\n" + obs::to_jsonl(path_event("jsonl", jsonl)) +
                          "\n" + obs::to_jsonl(summary) + "\n";
    robust::atomic_write_file(out_path, content);
    std::cout << "bench report written to " << out_path << "\n";
  }

  const std::string gate_path = args.get_string("gate");
  if (!gate_path.empty()) {
    std::ifstream is(gate_path);
    if (!is) throw util::IoError("cannot open report bench gate: " +
                                 gate_path);
    const std::vector<robust::JsonlLine> lines =
        robust::load_jsonl_tolerant(is, "report bench gate");
    const obs::Event* gate = nullptr;
    for (const robust::JsonlLine& line : lines) {
      if (line.event.type == "report_bench_gate") gate = &line.event;
    }
    if (gate == nullptr) {
      throw util::ParseError("report bench gate: no report_bench_gate "
                             "line in " + gate_path);
    }
    const double speedup_min = gate->f64_or("merge_load_speedup_min", 0);
    const double rss_min = gate->f64_or("rss_ratio_min", 0);
    const bool speedup_ok = merge_load_speedup >= speedup_min;
    const bool rss_ok = rss_ratio >= rss_min;
    std::cout << "gate: merge+load " << merge_load_speedup << "x vs min "
              << speedup_min << " [" << (speedup_ok ? "ok" : "FAIL")
              << "], RSS " << rss_ratio << "x vs min " << rss_min << " ["
              << (rss_ok ? "ok" : "FAIL") << "]\n";
    if (!speedup_ok || !rss_ok) return 4;
  }
  return 0;
}

// ---- serve family (docs/SERVE.md) ----------------------------------

/// Print a daemon error line and map its code to the CLI exit code.
int daemon_error(const obs::Event& response) {
  std::cerr << "daemon error: " << response.str_or("message", "?") << "\n";
  const std::uint64_t code = response.u64_or("code", 1);
  return code != 0 ? static_cast<int>(code) : 1;
}

int run_serve_cmd(const util::ArgParser& args) {
  serve::DaemonOptions opts;
  opts.socket_path = args.get_string("socket");
  opts.core.spool_dir = args.get_string("spool");
  opts.core.jobs = args.get_u64("jobs");
  opts.core.stream_buffer = args.get_u64("stream-buffer");
  opts.core.timing = !args.has("no-timing");

  TraceFlag trace;
  opts.core.trace = trace.open(args);

  // First SIGINT/SIGTERM drains gracefully: dispatch stops, in-flight
  // cells unwind through the cooperative cancel path, checkpoints keep
  // every committed cell, and the next daemon on this spool resumes.
  robust::install_signal_cancel();
  std::cout << "cadapt serve: spool " << opts.core.spool_dir << ", socket "
            << opts.socket_path << "\n"
            << std::flush;
  return serve::run_daemon(opts);
}

int run_submit_cmd(const util::ArgParser& args) {
  const std::string& path = args.positionals()[0];
  std::ifstream is(path, std::ios::binary);
  if (!is) throw util::IoError("cannot open manifest '" + path + "'");
  std::ostringstream manifest;
  manifest << is.rdbuf();

  serve::SubmitRequest request;
  request.manifest_text = manifest.str();
  request.client = args.get_string("client");
  request.weight = args.get_u64("weight");
  request.deadline_ms = args.get_u64("deadline-ms");
  request.box_budget = args.get_u64("box-budget");
  request.fault_spec = args.get_string("fault");
  request.fault_seed = args.get_u64("fault-seed");
  request.retries = static_cast<std::uint32_t>(args.get_u64("retries"));

  const obs::Event response =
      serve::roundtrip(args.get_string("socket"), serve::submit_event(request));
  if (response.type == "error") return daemon_error(response);
  std::cout << obs::to_jsonl(response) << "\n";
  return 0;
}

int run_status_cmd(const util::ArgParser& args) {
  const std::string socket = args.get_string("socket");
  obs::Event request("status");
  const std::string job = args.get_string("job");
  if (!job.empty()) {
    request.str("job", job);
    const obs::Event response = serve::roundtrip(socket, request);
    if (response.type == "error") return daemon_error(response);
    std::cout << obs::to_jsonl(response) << "\n";
    return 0;
  }
  for (const obs::Event& line : serve::roundtrip_all(socket, request)) {
    if (line.type == "end") continue;
    if (line.type == "error") return daemon_error(line);
    std::cout << obs::to_jsonl(line) << "\n";
  }
  return 0;
}

int run_cancel_cmd(const util::ArgParser& args) {
  obs::Event request("cancel");
  request.str("job", args.get_string("job"));
  const obs::Event response =
      serve::roundtrip(args.get_string("socket"), request);
  if (response.type == "error") return daemon_error(response);
  std::cout << obs::to_jsonl(response) << "\n";
  return 0;
}

int run_results_cmd(const util::ArgParser& args) {
  const std::string out_path = args.get_string("out");
  std::function<void(const std::string&)> on_progress;
  if (args.has("progress")) {
    on_progress = [](const std::string& line) { std::cerr << line << "\n"; };
  }
  const serve::ResultsEnd end = serve::stream_results(
      args.get_string("socket"), args.get_string("job"), on_progress);
  if (end.done.type == "error") return daemon_error(end.done);
  // The job_done status goes to stderr so stdout carries ONLY the report
  // bytes — `cadapt results --job J > r.json` is cmp-identical to the
  // daemon's durable artifact (and so to one-shot `cadapt sweep`).
  std::cerr << obs::to_jsonl(end.done) << "\n";
  if (end.done.str_or("state", "") == "failed") return 4;
  if (out_path.empty()) {
    std::cout << end.report_bytes;
  } else {
    std::ofstream os(out_path, std::ios::binary);
    if (!os || !(os << end.report_bytes) || !os.flush()) {
      throw util::IoError("cannot write --out " + out_path);
    }
    std::cerr << "report written to " << out_path << "\n";
  }
  return 0;
}

int run(const std::string& cmd, const util::ArgParser& args) {
  // Hidden chaos-harness flag (tools/chaos_sweep.sh, not in help): raise
  // SIGKILL at the Nth durable write, after persisting only half of it —
  // the crash-kill bit-identity drill.
  const std::uint64_t crash_after = args.get_u64("crash-after");
  if (crash_after != 0) robust::CrashPoint::instance().arm(crash_after);
  if (cmd == "help") {
    const auto& pos = args.positionals();
    cli::print_help(std::cout, pos.empty() ? "" : pos[0]);
    return 0;
  }
  if (cmd == "version") {
    if (args.has("json")) {
      // The same line the daemon answers `hello` with (type aside) —
      // scripts can version-gate offline and on-line identically.
      std::cout << obs::to_jsonl(serve::version_event()) << "\n";
      return 0;
    }
    std::cout << campaign::provenance_text();
    return 0;
  }
  if (cmd == "parallel") return run_parallel_cmd(args);
  if (cmd == "sweep") return run_sweep_cmd(args);
  if (cmd == "report export") return run_report_export_cmd(args);
  if (cmd == "report import") return run_report_import_cmd(args);
  if (cmd == "report info") return run_report_info_cmd(args);
  if (cmd == "report merge") return run_report_merge_cmd(args);
  if (cmd == "report bench") return run_report_bench_cmd(args);
  if (cmd == "serve") return run_serve_cmd(args);
  if (cmd == "submit") return run_submit_cmd(args);
  if (cmd == "status") return run_status_cmd(args);
  if (cmd == "cancel") return run_cancel_cmd(args);
  if (cmd == "results") return run_results_cmd(args);

  const model::RegularParams p = params_from(args);
  if (cmd == "trace") return run_trace(args, p);
  if (cmd == "mc") return run_mc(args, p);
  if (cmd == "analytic") {
    const std::uint64_t n_max =
        util::ipow(p.b, static_cast<unsigned>(args.get_u64("kmax")));
    const campaign::ProfileSpec spec =
        parse_profile(args.get_string("profile"), campaign::Workload::kRatio);
    const auto dist = flag_value(
        [&] { return campaign::make_distribution(spec, p, n_max); });
    engine::AnalyticSolver solver(p, *dist);
    util::Table table({"n", "f(n)", "f'(n)", "p", "K(n)", "m_n", "ratio"});
    for (const auto& lvl : solver.solve(n_max)) {
      table.row()
          .cell(lvl.n)
          .cell(lvl.f, 3)
          .cell(lvl.f_prime, 3)
          .cell(lvl.p, 4)
          .cell(lvl.scan_boxes, 3)
          .cell(lvl.m_n, 2)
          .cell(lvl.ratio, 3);
    }
    std::cout << "Lemma 3 recurrence, " << p.name() << ", Σ = "
              << dist->name() << "\n";
    table.print(std::cout);
  } else if (cmd == "replay") {
    // Run (a,b,c) on a saved profile (one box size per line).
    const std::string path = args.get_string("file");
    const auto boxes = profile::load_profile_file(path);
    const std::uint64_t n = n_from(args, p);
    profile::VectorSource source(boxes, args.has("cycle"));
    const engine::RunResult r = engine::run_regular(p, n, source);
    std::cout << p.name() << " on " << path << " (" << boxes.size()
              << " boxes), n = " << n << ":\n"
              << "  completed: " << (r.completed ? "yes" : "NO (exhausted)")
              << "\n  boxes used: " << r.boxes
              << "\n  adaptivity ratio: " << util::format_double(r.ratio, 3)
              << "\n  unit ratio: " << util::format_double(r.unit_ratio, 3)
              << "\n";
  } else if (cmd == "save-worst") {
    // Write M_{a,b}(n) to a file for external tools.
    const std::string path = args.get_string("file");
    const std::uint64_t n = args.get_u64("n");
    profile::WorstCaseSource source(p.a, p.b, n);
    const auto boxes = profile::materialize(source);
    std::ostringstream comment;
    comment << "M_{" << p.a << "," << p.b << "}(" << n << ")";
    profile::save_profile_file(path, boxes, comment.str());
    std::cout << "wrote " << boxes.size() << " boxes to " << path << "\n";
  } else if (cmd == "render") {
    const std::uint64_t n = args.get_u64("n");
    std::cout << profile::describe_worst_case(p.a, p.b, n) << "\n";
    profile::WorstCaseSource source(p.a, p.b, n);
    const auto boxes = profile::materialize(source);
    std::cout << profile::render_profile_ascii(
        boxes, args.get_u64("width"), args.get_u64("height"),
        !args.has("linear"));
  } else {
    CADAPT_CHECK_MSG(cmd == "multiplies", "no handler for '" << cmd << "'");
    util::Table table({"n", "completed executions", "log_b n + 1"});
    for (unsigned k = static_cast<unsigned>(args.get_u64("kmin"));
         k <= args.get_u64("kmax"); ++k) {
      const std::uint64_t n = util::ipow(p.b, k);
      profile::WorstCaseSource source(p.a, p.b, n);
      table.row()
          .cell(n)
          .cell(core::count_completions(p, n, source))
          .cell(std::uint64_t{k + 1});
    }
    std::cout << p.name() << " on one pass of M_{" << p.a << "," << p.b
              << "}(n):\n";
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

// Exit-code discipline (docs/ROBUSTNESS.md): scripts driving long
// campaigns must be able to tell "you called me wrong" (2) from "your
// input file is bad" (3) from "the library's own invariants broke" (4)
// without parsing stderr. Catch order matters — ParseError, IoError and
// UsageError all derive from CheckError. The command line is parsed
// against the command's flag table before any work starts.
int main(int argc, char** argv) {
  try {
    const std::vector<std::string> words =
        argc > 1 ? std::vector<std::string>(argv + 1, argv + argc)
                 : std::vector<std::string>{"help"};
    const cli::Command& command = cli::find_command(words);
    const util::ArgParser args = cli::parse_args(command, words);
    const int rc = run(command.name, args);
    for (const std::string& flag : args.unused_flags()) {
      std::cerr << "warning: unused flag --" << flag
                << " (ignored in this mode)\n";
    }
    return rc;
  } catch (const cadapt::util::UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n"
              << "run 'cadapt help' for usage\n";
    return 2;
  } catch (const cadapt::util::ParseError& e) {
    std::cerr << "input error: " << e.what() << "\n";
    return 3;
  } catch (const cadapt::util::IoError& e) {
    std::cerr << "input error: " << e.what() << "\n";
    return 3;
  } catch (const cadapt::util::CheckError& e) {
    std::cerr << "internal check failed: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

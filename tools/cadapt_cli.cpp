// cadapt — command-line driver for the cache-adaptive analysis toolkit.
//
// Usage: cadapt <command> [flags]
//
//   sweep       ratio-vs-n grids from a manifest (bench/manifests/)
//   analytic    Lemma 3 stopping-time table for a distribution
//   render      ASCII-render M_{a,b}(n) (Figure 1)
//   multiplies  §3: executions completed on one pass of M_{a,b}(n)
//   trace       instrumented run: JSONL event stream + summary tables
//   mc          robust Monte-Carlo campaign over one sweep cell:
//               containment, retries, fault injection, budgets,
//               checkpoint/resume (docs/ROBUSTNESS.md)
//   help        this text
//
// Exit codes (docs/ROBUSTNESS.md): 0 success, 2 usage error, 3 input
// error (unreadable/malformed file), 4 internal check failure, 1 other.
//
// Common flags: --a --b --c --kmin --kmax --trials --seed
//               --semantics optimistic|budgeted
// Trial flag (analytic/trace/mc): --profile TOKEN in the manifest
//   `profiles` grammar (src/campaign/manifest.hpp)
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

#include "campaign/cell_runner.hpp"
#include "campaign/gate.hpp"
#include "campaign/manifest.hpp"
#include "campaign/provenance.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "report/binary_io.hpp"
#include "report/cell_store.hpp"
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

int usage() {
  std::cout <<
      R"(cadapt - cache-adaptive analysis toolkit (SPAA 2020 reproduction)

commands:
  analytic    exact Lemma 3 stopping-time table for --profile
              shuffled|iid:... (default shuffled) up to n = b^--kmax
  render      ASCII-render M_{a,b}(--n) (Figure 1)
  multiplies  count executions completed on one pass of M_{a,b}(n)
  replay      run (a,b,c) on a saved profile: --file F [--cycle] [--n N]
  save-worst  write M_{a,b}(--n) to --file F (one box per line)
  trace       instrumented run emitting a JSONL event trace plus summary
              tables (docs/OBSERVABILITY.md). Flags: --n N,
              --profile worst|shuffled|iid:... (default worst),
              --trials T (T >= 2 adds a Monte-Carlo stage over the
              profile's distribution — the shuffled census for worst —
              with per-trial events), --no-timing (deterministic trace),
              --runs (aggregated run/bulk events instead of per-box —
              enables the bulk fast path, docs/PERF.md),
              --out F (JSONL to F; without it JSONL goes to stdout and
              the summary to stderr). With --sort NAME (see mc) the run
              is one real program on a cache-adaptive machine and the
              summary is the per-size-class paging table
              (docs/OBSERVABILITY.md)
  mc          robust Monte-Carlo campaign over one sweep cell
              (docs/ROBUSTNESS.md): the trial a manifest with the same
              tokens runs. Flags: --profile TOKEN (default shuffled),
              --n N, --trials T, --seed S,
              --retries R (extra reseeded attempts per failing trial),
              --retry-backoff-ms B (seeded exponential backoff between
              attempts; attempt 0 never sleeps), --fault site=rate,...
              --fault-seed S (sites: trial_body box_draw sink_write
              paging_step io_write io_short_write io_enospc io_fsync —
              the io_* sites hit the durable checkpoint/report writers),
              --deadline-ms D (cooperative mid-trial cancellation via a
              watchdog; must be >= 1),
              --box-budget B (explicit truncation, never a biased mean),
              --checkpoint F [--resume] [--checkpoint-every K],
              --errors-shown E (default 5), --per-box (force the
              per-box reference driver; bit-identical, for debugging).
              With --sort NAME (adaptive|funnel|merge2|mm:N|fw:N) the
              campaign runs a real program on a cache-adaptive machine:
              --profile TOKEN (const:S|uniform:LO:HI|
              sawtooth:PEAK:CYCLES|mworst:A:B:N:SCALE, default const:64),
              --keys K --block B, --capture-trace (record the block-run
              trace once, replay per trial — docs/PERF.md),
              --per-access (per-word reference dispatch; bit-identical),
              --policy P (lru|clock|arc|car|assoc:W replacement policy,
              default lru — docs/PAGING.md),
              --tiers T2CAP:HIT:MISS[:NUM:DEN] (two-tier machine: tier-2
              capacity + asymmetric costs, optional tier-1 share). Both
              also apply to trace --sort. --workers N runs the trials on
              an N-thread pool (docs/PARALLEL.md) — summaries are
              identical to the sequential run
  parallel    seeded work-stealing parallel engine (docs/PARALLEL.md):
              cadapt parallel [--workers P] [--k K] [--carve
              static|lru|flush [--flush-period F]] [--epoch E] [--seed S]
              — deterministic P-worker execution with per-worker stats;
              --scale 1,2,4,8 [--json [--out F]] emits the
              BENCH_parallel.json scaling artifact — run
              'cadapt help parallel' for the model and flags
  sweep       declarative campaign from a manifest file (docs/SWEEPS.md):
              cadapt sweep <manifest> [--jobs J] [--workers W] [--out F]
              [--shards S --shard-index I] [--checkpoint F [--resume]]
              [--baseline report] [--no-timing] ... — run
              'cadapt help sweep' for the full flag list
  report      columnar report engine (docs/REPORT.md):
              cadapt report export|import|info|merge|bench ... —
              convert between the binary columnar container and the
              JSONL report (byte-identical export), inspect artifacts,
              merge shards columnar-natively, and benchmark the two
              encodings — run 'cadapt help report' for subcommands
  serve       long-lived multi-tenant campaign daemon (docs/SERVE.md):
              cadapt serve --spool DIR --socket PATH [--jobs J]
              [--slots N] [--stream-buffer L] [--no-timing] [--trace F]
              — run 'cadapt help serve' for the protocol and flags
  submit      submit a manifest to a running daemon:
              cadapt submit <manifest> --socket PATH [--client NAME]
              [--weight W] [--deadline-ms D] [--box-budget B]
              [--fault SPEC [--fault-seed S]] [--retries R]
  status      list daemon jobs: cadapt status --socket PATH [--job ID]
  cancel      cancel a daemon job: cadapt cancel --socket PATH --job ID
  results     stream a job's cells and fetch its report:
              cadapt results --socket PATH --job ID [--out F]
              [--progress]
  version     build provenance (version, git hash, compiler, flags);
              --json emits one machine-readable line (the daemon's
              hello payload)
  help [cmd]  this text, or detailed help for one command

exit codes:
  0 success   2 usage error   3 input error (bad/unreadable file)
  4 internal check failure    1 other

common flags:
  --a N --b N --c X         algorithm shape (default 8 4 1.0)
  --kmin K --kmax K         n = b^kmin .. b^kmax (default 2..6)
  --trials T --seed S       Monte-Carlo controls (default 32, 42)
  --semantics optimistic|budgeted
  --profile TOKEN           the trial (analytic/trace/mc): one manifest
                            `profiles` token, e.g. shuffled, perturb:4 or
                            iid:bimodal:4:4096:0.02 (docs/SWEEPS.md)
)";
  return 0;
}

model::RegularParams params_from(const util::ArgParser& args) {
  model::RegularParams p;
  p.a = args.get_u64("a", 8);
  p.b = args.get_u64("b", 4);
  p.c = args.get_double("c", 1.0);
  p.validate();
  return p;
}

engine::BoxSemantics semantics_from(const util::ArgParser& args) {
  const std::string sem = args.get_string("semantics", "optimistic");
  if (sem == "budgeted") return engine::BoxSemantics::kBudgeted;
  if (sem == "optimistic") return engine::BoxSemantics::kOptimistic;
  throw util::UsageError("--semantics must be optimistic or budgeted");
}

// --deadline-ms in nanoseconds. Zero is rejected at parse time: it would
// cancel the campaign before the first trial, which is never what the
// caller meant (negatives already fail get_u64's unsigned parse).
std::uint64_t deadline_ns_from(const util::ArgParser& args) {
  if (!args.has("deadline-ms")) return 0;
  const std::uint64_t ms = args.get_u64("deadline-ms", 0);
  if (ms == 0) {
    throw util::UsageError(
        "--deadline-ms must be a positive integer (a zero deadline would "
        "cancel the campaign before the first trial)");
  }
  return ms * 1'000'000ull;
}

// --workers: intra-cell / trial parallelism (docs/PARALLEL.md). Zero is
// rejected at parse time like --deadline-ms: "no workers" is never what
// the caller meant ("unset" is spelled by omitting the flag). Returns 0
// when absent.
std::uint64_t workers_from(const util::ArgParser& args) {
  if (!args.has("workers")) return 0;
  const std::uint64_t workers = args.get_u64("workers", 0);
  if (workers == 0) {
    throw util::UsageError(
        "--workers must be a positive integer (1 = the sequential engine; "
        "omit the flag to honor the manifest)");
  }
  return workers;
}

// --flush-period for the kPeriodicFlush carve policy (cadapt parallel).
// Unlike --deadline-ms, ZERO IS VALID and documented: it means "equal to
// the epoch" — one slice crash per --epoch boxes — the parallel analog
// of sched::SimOptions::flush_period, whose 0 means "equal to
// total_cache_blocks" (src/sched/shared_cache.hpp). Garbage and
// negatives are rejected at parse with the field named in the error
// (ArgParser::get_u64 throws UsageError -> exit 2).
std::uint64_t flush_period_from(const util::ArgParser& args) {
  return args.get_u64("flush-period", 0);
}

// --retry-backoff-ms: seeded exponential backoff between retry attempts
// (docs/ROBUSTNESS.md). Attempt 0 never sleeps, so the flag is free for
// campaigns that never fail.
robust::BackoffPolicy backoff_from(const util::ArgParser& args,
                                   std::uint64_t seed) {
  robust::BackoffPolicy policy;
  policy.base_ns = args.get_u64("retry-backoff-ms", 0) * 1'000'000ull;
  policy.seed = seed;
  return policy;
}

// "YES (deadline)" / "YES (budget)" / "YES (external)" — campaigns
// truncated by the box budget keep printing "(budget)", which existing
// scripts grep for.
std::string truncated_text(bool truncated, robust::CancelReason reason) {
  if (!truncated) return "no";
  if (reason == robust::CancelReason::kNone) {
    reason = robust::CancelReason::kBudget;
  }
  return std::string("YES (") + robust::cancel_reason_name(reason) + ")";
}

// The robustness flags `mc` and `sweep` share (docs/ROBUSTNESS.md):
// --retries --retry-backoff-ms --deadline-ms --box-budget --checkpoint
// --resume --fault --fault-seed, plus the process-wide SIGINT/SIGTERM
// token. Owns the fault plan, faulty I/O backend and deadline watchdog
// the options point into, so it must outlive the campaign — and, for
// sweep, the report commit, which a plan arming the io_* sites also hits.
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
        static_cast<std::uint32_t>(args.get_u64("retries", 0)) + 1;
    opts.budget.deadline_ns = deadline_ns_from(args);
    opts.budget.max_total_boxes = args.get_u64("box-budget", 0);
    opts.backoff = backoff_from(args, seed);
    opts.checkpoint_path = args.get_string("checkpoint", "");
    opts.resume = args.has("resume");
    if (opts.resume && opts.checkpoint_path.empty()) {
      throw util::UsageError("--resume requires --checkpoint");
    }
    const std::string fault_spec = args.get_string("fault", "");
    if (!fault_spec.empty()) {
      plan = robust::FaultPlan::parse_spec(
          fault_spec, args.get_u64("fault-seed", seed ^ 0xFA17ull));
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

// The distribution vocabulary `--profile` replaced. Rejected outright: a
// silently ignored flag would run a different trial than the one named.
void reject_retired_flags(const util::ArgParser& args) {
  for (const char* flag : {"dist", "kdist", "small", "big", "pbig", "size",
                           "lo", "hi", "sort-profile"}) {
    if (args.has(flag)) {
      throw util::UsageError(
          std::string("--") + flag +
          " is retired: name the trial with --profile TOKEN, the manifest "
          "profile grammar (e.g. --profile iid:bimodal:4:4096:0.02, or "
          "--sort funnel --profile uniform:4:64)");
    }
  }
}

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

// --profile TOKEN in the manifest `profiles` grammar of `workload`
// (src/campaign/manifest.hpp).
campaign::ProfileSpec profile_from(const util::ArgParser& args,
                                   campaign::Workload workload,
                                   const std::string& fallback) {
  return flag_value([&] {
    return campaign::parse_profile_token(args.get_string("profile", fallback),
                                         workload);
  });
}

// A ratio run's problem size: --n, or b^--kmax.
std::uint64_t n_from(const util::ArgParser& args,
                     const model::RegularParams& p) {
  const std::uint64_t n = args.get_u64(
      "n", util::ipow(p.b, static_cast<unsigned>(args.get_u64("kmax", 6))));
  if (!util::is_power_of(n, p.b)) {
    throw util::UsageError("--n must be a power of b; n=" + std::to_string(n));
  }
  return n;
}

// The trial named on the command line, as the campaign cell `mc` runs
// (and `trace --sort` traces) plus the options its runner consumes. A
// ratio cell takes --a/--b/--c, --n/--kmax and --profile (default
// shuffled); a sort cell takes --sort, --profile (default const:64),
// --policy, --tiers, --keys and --block.
struct CellArgs {
  campaign::Cell cell;
  campaign::CellRunOptions options;
};

CellArgs cell_args_from(const util::ArgParser& args,
                        const model::RegularParams& p) {
  CellArgs ca;
  ca.cell.seed = args.get_u64("seed", 42);
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
        profile_from(args, campaign::Workload::kRatio, "shuffled");
    ca.options.semantics = semantics_from(args);
    ca.options.per_box = args.has("per-box");
    return ca;
  }
  ca.cell.sort = args.get_string("sort", "");
  flag_value([&] { campaign::validate_program_token(ca.cell.sort, 0); });
  ca.cell.profile = profile_from(args, campaign::Workload::kSort, "const:64");
  // Canonical policy token: labels and checkpoint fingerprints are
  // spelling-independent; "" keeps the plain-LRU machine (docs/PAGING.md).
  const std::string policy = args.get_string("policy", "");
  if (!policy.empty()) {
    ca.cell.policy =
        flag_value([&] { return paging::parse_policy_token(policy).token(); });
  }
  const std::string tiers = args.get_string("tiers", "");
  if (!tiers.empty()) {
    ca.options.tiers =
        flag_value([&] { return campaign::parse_tiers_token(tiers); });
  }
  ca.options.keys = args.get_u64("keys", 16384);
  ca.options.block = args.get_u64("block", 8);
  if (ca.options.keys < 2) throw util::UsageError("--keys must be >= 2");
  if (ca.options.block == 0) throw util::UsageError("--block must be >= 1");
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
  const std::uint64_t trials = args.get_u64("trials", 1);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::string out_path = args.get_string("out", "");
  const campaign::ProfileSpec spec =
      profile_from(args, campaign::Workload::kRatio, "worst");
  const bool worst = spec.kind == campaign::ProfileKind::kWorst;
  if (!worst && spec.kind != campaign::ProfileKind::kShuffled &&
      spec.kind != campaign::ProfileKind::kIid) {
    throw util::UsageError("trace --profile must be worst, shuffled or "
                           "iid:DIST:...; got '" + spec.token + "'");
  }
  const engine::BoxSemantics semantics = semantics_from(args);
  const std::string sem = args.get_string("semantics", "optimistic");
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
  // --runs swaps per-box events for aggregated run/bulk events, which
  // also re-enables the engine's bulk fast path (docs/PERF.md); the
  // conservation sums below hold either way.
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
// campaign cell — the trial `cadapt sweep` runs for the same tokens —
// with contained per-trial failures, bounded retry-with-reseed,
// deterministic fault injection, explicit budget truncation, and
// checkpoint/resume. With --sort the cell is a real program (sort or
// matrix kernel) on a cache-adaptive machine, with the paging fast path
// live (docs/PERF.md); --capture-trace records the program's block-run
// trace once and replays it per trial. The summary never hides a
// degradation: failed/truncated are always printed.
int run_mc(const util::ArgParser& args, const model::RegularParams& p) {
  const CellArgs ca = cell_args_from(args, p);
  const campaign::Cell& cell = ca.cell;
  const bool sort = !cell.sort.empty();
  engine::McOptions opts;
  opts.trials = args.get_u64("trials", 64);
  opts.seed = cell.seed;
  opts.checkpoint_every = args.get_u64("checkpoint-every", 256);
  RobustFlags flags;
  flags.apply(args, opts.seed, opts);

  // Checkpoint fingerprint: everything that shapes a trial besides
  // (trials, seed) — the cell's canonical tokens plus the robust flags —
  // so a resume with different parameters is refused, not silently
  // blended. --per-box and --per-access are absent by design: they are
  // bit-identical by contract, so resuming across them must be allowed.
  // Backoff never changes a trial's RESULT, but it changes the persisted
  // backoff_ns schedule.
  std::ostringstream cfg;
  cfg << describe(ca) << "; retries=" << (opts.max_attempts - 1)
      << " fault=" << flags.plan.spec()
      << " fault_seed=" << (opts.faults != nullptr ? flags.plan.seed() : 0)
      << " backoff_ms=" << (opts.backoff.base_ns / 1'000'000ull);
  opts.config = cfg.str();

  // --workers N: a private N-thread pool for the trials; summaries are
  // deterministic across pool sizes (trial-index-keyed aggregation).
  std::optional<util::ThreadPool> pool;
  if (args.has("workers")) {
    pool.emplace(static_cast<std::size_t>(workers_from(args)));
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
            << truncated_text(s.truncated, s.truncate_reason) << "\n";
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
      std::min<std::uint64_t>(s.errors.size(), args.get_u64("errors-shown", 5));
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

// Detailed per-command help for `cadapt help <command>`. Falls back to
// the top-level usage text for commands without a dedicated page.
int help_for(const std::string& cmd) {
  if (cmd == "sweep") {
    std::cout <<
        R"(cadapt sweep - run a declarative experiment campaign (docs/SWEEPS.md)

usage:
  cadapt sweep <manifest> [flags]        run (a shard of) the campaign
  cadapt sweep --merge <report>... [flags]   merge shard reports

The manifest (key=value lines; see bench/manifests/ and docs/SWEEPS.md)
expands into a deterministic cell grid: algorithm x profile x size, each
cell running --trials seeded Monte-Carlo trials. Sort-workload manifests
may add a replacement-policy axis (policies = lru clock arc car assoc:W)
and a two-tier machine (tiers = T2CAP:HIT:MISS[:NUM:DEN]) — both enter
the fingerprint only when present (docs/PAGING.md). The report written to
--out is a pure function of the manifest — bit-identical across --jobs
values, shard splits, and kill + --resume (pass --no-timing to zero the
wall clocks too).

execution flags:
  --jobs J              worker threads (default: hardware concurrency)
  --workers W           accepted for compatibility (W >= 1) and ignored:
                        idle --jobs threads already split a cell's
                        trials, so the manifest's `workers` key adds no
                        threads in sweep (docs/PARALLEL.md)
  --out F               report path (default BENCH_sweep.json)
  --format jsonl|binary report encoding (default jsonl; binary is the
                        columnar container of docs/REPORT.md —
                        `cadapt report export` recovers the exact JSONL
                        bytes). --merge and --baseline accept either
                        encoding, sniffed per file; an all-binary merge
                        stays columnar end to end
  --shards S --shard-index I   run only cells with index % S == I;
                        merge the shard reports with --merge afterwards
  --checkpoint F        record finished cells; a killed sweep resumes
                        with --resume, losing at most the cells in flight
  --resume              continue from --checkpoint (header must match)
  --no-timing           zero wall_ms/wall_ns for bit-identical artifacts
  --per-box             force the per-box reference driver in every trial;
                        the default bulk path writes a byte-identical
                        report (docs/PERF.md), so this is for differential
                        testing and debugging
  --per-access          force per-word paging dispatch in sort-workload
                        trials (disable the hot-block fast path); also
                        byte-identical by contract (docs/PERF.md)
  --capture-trace       sort workloads: set the manifest's trace_replay
                        from the command line — record each cell's
                        block-run trace once, replay it per trial
                        (changes the config_hash; docs/PERF.md)
  --trace F             JSONL telemetry (completion order) to F

robustness flags (docs/ROBUSTNESS.md):
  --retries R           extra reseeded attempts per failing trial
  --retry-backoff-ms B  seeded exponential backoff between attempts
                        (deterministic jitter; attempt 0 never sleeps)
  --fault site=rate,... --fault-seed S    deterministic fault injection;
                        the io_* sites (io_write io_short_write io_enospc
                        io_fsync) hit the durable checkpoint and report
                        writers — a failed commit exits 3 and leaves the
                        previous artifact intact
  --deadline-ms D       wall-clock deadline (>= 1): a watchdog cancels
                        stuck cells MID-cell, the report says
                        TRUNCATED (deadline)
  --box-budget B        total-box budget, checked at cell boundaries:
                        skip remaining cells, TRUNCATED (budget) — never
                        a silent bias

Checkpoints and reports are durably committed (write + fsync + atomic
rename for reports): a kill -9 mid-run loses at most the cells in
flight, and --resume reproduces the uninterrupted report byte-for-byte
(tools/chaos_sweep.sh drills exactly this).

baseline gating:
  --baseline F          compare against a stored report of the SAME
                        campaign; exit 4 if any cell regressed
                        (bootstrap CIs disjoint AND mean up > --gate-rel)
  --gate-rel X          relative slowdown floor (default 0.05)
  --gate-inject X       multiply current samples by X first — a seeded
                        rehearsal proving the gate can fail
)";
    return 0;
  }
  if (cmd == "parallel") {
    std::cout <<
        R"(cadapt parallel - seeded work-stealing parallel engine (docs/PARALLEL.md)

usage:
  cadapt parallel [flags]                one deterministic P-worker run
  cadapt parallel --scale 1,2,4,8 [--json [--out F]]   scaling artifact

The recursion tree of an (a,b,c)-regular execution is pre-split into
subtree + scan tasks on per-worker Chase-Lev deques; each global machine
box is carved into per-worker cache slices by an E15 allocation policy,
and every worker feeds its emergent profile through the inner-square
decomposition into its own local engine. Steals resolve serially at
epoch barriers with victims drawn from hash(seed, worker, steal_index),
so the whole result — steal counts included — is a pure function of the
flags: same seed + same P = bit-identical output, and --workers 1 is
byte-identical to the sequential engine.

engine flags:
  --a N --b N --c X     algorithm shape (default 8 4 1.0)
  --k K                 problem size n = b^K (default 6)
  --workers P           simulated workers (default 4; P >= 1)
  --carve static|lru|flush   how each global box is carved into slices
                        (the E15 shared-cache allocation policies;
                        default static = equal shares)
  --flush-period F      carve = flush only: slices crash to 1 block
                        every F global boxes. 0 (the default) means
                        "equal to the epoch" — one crash per --epoch
                        boxes — mirroring the shared-cache simulator,
                        where flush_period = 0 means "equal to
                        total_cache_blocks"
  --epoch E             boxes between steal barriers (default 64, >= 1)
  --split-depth D       pre-split depth (default 0 = auto: a^D >= 4P)
  --seed S              steal-schedule + box-stream seed (default 42)
  --box-lo L --box-hi H i.i.d. uniform global box sizes (default 4..64)
  --boxes B             global box cap
  --placement end|interleaved|adversary   scan placement
  --semantics optimistic|budgeted

--scale mode adds one real adaptive-sort cell (trace replay cannot
cover it — the access stream depends on the live box profile) run
through the concurrent trial pool at every P:
  --scale LIST          worker counts, e.g. 1,2,4,8
  --sort NAME           program (default adaptive)
  --profile TOKEN       box profile, manifest sort grammar (default
                        uniform:4:64)
  --keys K --block B --trials T   cell shape (default 4096, 8, 8)
  --no-timing           zero the wall-clock fields (deterministic bytes)
  --json [--out F]      emit JSONL (parallel_env + one parallel_scale
                        line per P) to stdout or F

Reported per P: sim_speedup = rounds_1/rounds_P (a round — one global
machine box — is the model's unit of time), steals vs the
Cole-Ramachandran-style bound P * (split_depth + k), the capacity
overhead extra_miss_ratio = (P * rounds_P - rounds_1)/rounds_1, and the
cell's wall-clock speedup with the machine's core count for provenance.
)";
    return 0;
  }
  if (cmd == "report") {
    std::cout <<
        R"(cadapt report - columnar report engine (docs/REPORT.md)

usage:
  cadapt report export <report> [--out F]     binary -> JSONL (exact bytes)
  cadapt report import <report> [--out F]     JSONL -> binary (default
                                              <report>.bin)
  cadapt report info <report>                 header, dictionary, and
                                              section summary
  cadapt report merge <report>... [--out F] [--format jsonl|binary]
                                              columnar-native shard merge
                                              (default BENCH_sweep.bin)
  cadapt report bench [--cells N] [--trials T] [--seed S] [--dir D]
                      [--out F] [--gate F] [--keep]
                                              columnar-vs-JSONL benchmark

The binary container (magic CADAPTCR) stores the campaign as
struct-of-arrays columns: fixed-width numeric columns per cell field,
interned dictionaries for the four string axes, and one contiguous
samples arena — with a CRC-32-checked section table committed by the
same atomic-rename protocol as every other artifact. Loading it is a
few large reads instead of millions of per-line parses.

The JSONL report stays the interchange format: `export` renders the
EXACT bytes `cadapt sweep` writes for the same campaign (same event
encoders), so cmp-based bit-identity gates hold across a binary round
trip. Every subcommand accepts either encoding, sniffed by magic.

bench: synthesizes a seeded ~N-cell campaign, runs write/load/merge
through both encodings (columnar first — peak RSS is a process
high-water mark), prints throughput (cells/s), bytes/cell and peak RSS,
and emits JSONL (report_bench / report_bench_path / report_bench_summary)
to --out. --gate F reads a report_bench_gate line
({"type":"report_bench_gate","merge_load_speedup_min":...,
"rss_ratio_min":...}) and exits 4 when a ratio falls below its floor
(tools/regen_bench_report.sh drives this; scratch shards go to --dir).
)";
    return 0;
  }
  if (cmd == "version") {
    std::cout << "cadapt version - print the provenance baked into this "
                 "binary\n\nThe same fields are embedded verbatim in every "
                 "sweep report's sweep_env line,\nso a report always "
                 "answers \"which build measured this?\".\n\n--json emits "
                 "the fields as one JSONL line plus the serve protocol\n"
                 "and report versions — the exact payload a running "
                 "daemon answers `hello`\nwith, so scripts version-gate "
                 "offline and on-line identically.\n";
    return 0;
  }
  if (cmd == "serve" || cmd == "submit" || cmd == "status" ||
      cmd == "cancel" || cmd == "results") {
    std::cout << R"(cadapt serve - long-lived multi-tenant campaign daemon

  cadapt serve --spool DIR --socket PATH [flags]

The daemon accepts sweep manifests over a Unix-domain socket, schedules
their cells across one shared thread pool with weighted round-robin
fair-share across clients, and streams results back incrementally
(docs/SERVE.md). Every accepted job is durably spooled; a SIGKILL'd
daemon restarted on the same --spool resumes every unfinished job from
its cell-granular checkpoint, and the final report is byte-identical to
one-shot `cadapt sweep` on the same manifest (run both with
--no-timing to zero wall clocks).

serve flags:
  --spool DIR           durable job state (required; created if missing)
  --socket PATH         Unix-domain socket to listen on (required)
  --jobs J              worker threads (default: hardware concurrency)
  --slots N             max in-flight cells (default: pool size)
  --stream-buffer L     per-job result buffer before backpressure
                        pauses that job's dispatch (default 64 lines)
  --no-timing           zero wall clocks (byte-identity artifacts)
  --trace F             JSONL telemetry: job_accepted / cell_scheduled /
                        job_done in decision order

client subcommands (all take --socket PATH):
  submit <manifest>     [--client NAME] [--weight W] [--deadline-ms D]
                        [--box-budget B] [--fault SPEC [--fault-seed S]]
                        [--retries R] — prints the job_accepted line
  status [--job ID]     one job_status line per job
  cancel --job ID       cooperative cancel; a truncated report is still
                        written once in-flight cells unwind
  results --job ID      stream sweep_cell lines ([--progress] prints
                        them to stderr), then write the report bytes to
                        stdout or --out F — cmp-identical to the
                        daemon's durable artifact

Exit codes mirror the error lines the daemon answers with: 2 usage,
3 input (unknown job, malformed manifest), 4 internal.
)";
    return 0;
  }
  return usage();
}

// ---- parallel (docs/PARALLEL.md) ------------------------------------

sched::Policy carve_from(const util::ArgParser& args) {
  const std::string carve = args.get_string("carve", "static");
  if (carve == "static") return sched::Policy::kStaticEqual;
  if (carve == "lru") return sched::Policy::kGlobalLru;
  if (carve == "flush") return sched::Policy::kPeriodicFlush;
  throw util::UsageError("--carve must be static, lru, or flush");
}

engine::ScanPlacement placement_from(const util::ArgParser& args) {
  const std::string placement = args.get_string("placement", "end");
  if (placement == "end") return engine::ScanPlacement::kEnd;
  if (placement == "interleaved") return engine::ScanPlacement::kInterleaved;
  if (placement == "adversary") {
    return engine::ScanPlacement::kAdversaryMatched;
  }
  throw util::UsageError(
      "--placement must be end, interleaved, or adversary");
}

std::vector<std::uint64_t> scale_from(const util::ArgParser& args) {
  std::vector<std::uint64_t> out;
  const std::string spec = args.get_string("scale", "");
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
// stats and the conservation check. With --scale "1,2,4,8": the
// BENCH_parallel.json artifact — per-P simulated speedup (rounds_1 /
// rounds_P; round = one global machine box, the model's unit of time),
// measured steals against the Cole–Ramachandran-style O(P * depth)
// bound, the capacity overhead standing in for CR's extra-miss term,
// and the wall clock of a real adaptive-sort cell (the program trace
// replay cannot cover) run through the concurrent trial pool.
int run_parallel_cmd(const util::ArgParser& args) {
  const model::RegularParams p = params_from(args);
  const unsigned k = static_cast<unsigned>(args.get_u64("k", 6));
  const std::uint64_t n = util::ipow(p.b, k);

  sched::ParallelOptions popt;
  popt.workers = args.has("workers") ? workers_from(args) : 4;
  popt.seed = args.get_u64("seed", 42);
  popt.carve = carve_from(args);
  popt.flush_period = flush_period_from(args);
  popt.epoch_rounds = args.get_u64("epoch", 64);
  if (popt.epoch_rounds == 0) throw util::UsageError("--epoch must be >= 1");
  popt.split_depth = args.get_u64("split-depth", 0);
  popt.max_boxes = args.get_u64("boxes", UINT64_C(1) << 40);
  popt.placement = placement_from(args);
  popt.semantics = semantics_from(args);
  popt.adversary_seed = args.get_u64("adversary-seed", 0);

  // The box stream: i.i.d. uniform sizes, re-seeded identically for
  // every worker count so each P sees the same global stream.
  const std::uint64_t box_lo = args.get_u64("box-lo", 4);
  const std::uint64_t box_hi = args.get_u64("box-hi", 64);
  if (box_lo == 0 || box_hi < box_lo) {
    throw util::UsageError("--box-lo/--box-hi must satisfy 1 <= lo <= hi");
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
              << ", carve = " << args.get_string("carve", "static")
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
  cell.sort = args.get_string("sort", "adaptive");
  cell.profile = profile_from(args, campaign::Workload::kSort, "uniform:4:64");
  flag_value([&] { campaign::validate_program_token(cell.sort, 0); });
  cell.seed = popt.seed;
  cell.trials = args.get_u64("trials", 8);
  campaign::CellRunOptions cell_options;
  cell_options.keys = args.get_u64("keys", 4096);
  cell_options.block = args.get_u64("block", 8);
  cell_options.timing = timing;

  const auto cell_wall_ns = [&cell, &cell_options,
                             timing](std::uint64_t workers) -> std::uint64_t {
    cell_options.workers = workers;
    if (!timing) {
      (void)campaign::run_cell(cell, cell_options);
      return 0;
    }
    const auto start = std::chrono::steady_clock::now();
    (void)campaign::run_cell(cell, cell_options);
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  // Baseline: the sequential engine and the sequential cell loop.
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
        .str("carve", args.get_string("carve", "static"))
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
            << args.get_string("scale", "") << " (cell: " << cell.sort
            << " on " << cell.profile.token << ", " << cell_options.keys
            << " keys x " << cell.trials << " trials):\n";
  table.print(std::cout);

  if (args.has("json") || args.has("out")) {
    const std::string out_path = args.get_string("out", "");
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

// ---- report encodings (docs/REPORT.md) -----------------------------

enum class ReportFormat { kJsonl, kBinary };

ReportFormat report_format_from(const util::ArgParser& args) {
  const std::string format = args.get_string("format", "jsonl");
  if (format == "jsonl") return ReportFormat::kJsonl;
  if (format == "binary") return ReportFormat::kBinary;
  throw util::UsageError("--format must be jsonl or binary");
}

/// Load either encoding as a row report (binary sniffed by magic).
campaign::Report load_report_any(const std::string& path) {
  if (report::is_binary_report_file(path)) {
    return report::load_store_file(path).to_report();
  }
  return campaign::load_report_file(path);
}

/// Load either encoding as a columnar store.
report::CellStore load_store_any(const std::string& path) {
  if (report::is_binary_report_file(path)) {
    return report::load_store_file(path);
  }
  return report::CellStore::from_report(campaign::load_report_file(path));
}

int run_sweep_cmd(const util::ArgParser& args) {
  const std::vector<std::string>& pos = args.positionals();
  const std::string out_path = args.get_string("out", "BENCH_sweep.json");
  const ReportFormat format = report_format_from(args);

  // Function scope, not branch scope: the fault plan and faulty I/O
  // backend must outlive the report commit at the bottom.
  RobustFlags flags;

  campaign::Report report;
  // Set on the all-binary merge path: cells stay columnar end to end
  // (load, merge, write) and a row Report is only materialized if the
  // baseline gate needs one.
  std::optional<report::CellStore> store;
  if (args.has("merge")) {
    // ArgParser pairs "--merge x.json" as flag + value, so the first
    // report path may arrive as the flag's value rather than a positional.
    std::vector<std::string> inputs;
    const std::string merge_value = args.get_string("merge", "");
    if (!merge_value.empty()) inputs.push_back(merge_value);
    inputs.insert(inputs.end(), pos.begin() + 1, pos.end());
    if (inputs.empty()) {
      throw util::UsageError("sweep --merge requires shard report paths");
    }
    const bool all_binary =
        std::all_of(inputs.begin(), inputs.end(),
                    [](const std::string& path) {
                      return report::is_binary_report_file(path);
                    });
    if (all_binary) {
      std::vector<report::CellStore> parts;
      parts.reserve(inputs.size());
      for (const std::string& path : inputs) {
        parts.push_back(report::load_store_file(path));
      }
      const std::size_t part_count = parts.size();
      store = report::CellStore::merge(std::move(parts));
      std::cout << "merged " << part_count << " shard reports ("
                << store->cell_count() << " cells)\n";
    } else {
      std::vector<campaign::Report> parts;
      parts.reserve(inputs.size());
      for (const std::string& path : inputs) {
        parts.push_back(load_report_any(path));
      }
      const std::size_t part_count = parts.size();
      report = campaign::merge_reports(std::move(parts));
      std::cout << "merged " << part_count << " shard reports ("
                << report.cells.size() << " cells)\n";
    }
  } else {
    if (pos.size() != 2) {
      throw util::UsageError(
          "sweep requires exactly one manifest path (or --merge)");
    }
    campaign::Manifest manifest = campaign::parse_manifest_file(pos[1]);
    // --capture-trace turns on the manifest's trace_replay from the
    // command line; it enters the fingerprint (" replay=1"), so the
    // report's config_hash changes — replay campaigns are a different
    // campaign (inputs are fixed per cell), never a silent substitute.
    if (args.has("capture-trace")) {
      if (manifest.workload != campaign::Workload::kSort) {
        throw util::UsageError("--capture-trace requires a sort-workload "
                               "manifest");
      }
      manifest.trace_replay = true;
    }
    const campaign::Plan plan = campaign::expand_plan(manifest);

    campaign::SweepOptions opts;
    opts.jobs = args.get_u64("jobs", 0);
    // Validated as everywhere else, but no knob here: sweep's --jobs
    // threads already split a cell's trials (docs/PARALLEL.md).
    (void)workers_from(args);
    opts.shards = args.get_u64("shards", 1);
    opts.shard_index = args.get_u64("shard-index", 0);
    opts.timing = !args.has("no-timing");
    opts.per_box = args.has("per-box");
    opts.per_access = args.has("per-access");
    flags.apply(args, manifest.seed, opts);

    std::ofstream trace_file;
    obs::JsonlSink trace_sink(trace_file);
    const std::string trace_path = args.get_string("trace", "");
    if (!trace_path.empty()) {
      trace_file.open(trace_path);
      if (!trace_file) {
        throw util::IoError("cannot open --trace " + trace_path);
      }
      opts.trace = &trace_sink;
    }

    report = campaign::run_sweep(plan, opts);
    std::cout << "sweep '" << report.name << "' (config "
              << report.config_hash << "): ran "
              << report.cells.size() << " of " << report.cells_total
              << " cells";
    if (opts.shards > 1) {
      std::cout << " (shard " << opts.shard_index << "/" << opts.shards
                << ")";
    }
    if (report.truncated) {
      robust::CancelReason reason = report.truncate_reason;
      if (reason == robust::CancelReason::kNone) {
        reason = robust::CancelReason::kBudget;
      }
      std::cout << ", TRUNCATED (" << robust::cancel_reason_name(reason)
                << ")";
    }
    std::cout << "\n";
  }

  std::uint64_t completed = 0, incomplete = 0, capped = 0, failed = 0;
  if (store.has_value()) {
    for (std::size_t row = 0; row < store->cell_count(); ++row) {
      completed += store->completed[row];
      incomplete += store->incomplete[row];
      capped += store->capped[row];
      failed += store->failed[row];
    }
  } else {
    for (const campaign::CellResult& cell : report.cells) {
      completed += cell.completed;
      incomplete += cell.incomplete;
      capped += cell.capped;
      failed += cell.failed;
    }
  }
  std::cout << "  trials: " << completed << " completed, " << incomplete
            << " incomplete, " << failed << " failed\n";
  if (incomplete > 0) {
    std::cout << "  incomplete breakdown: " << capped << " hit the box cap, "
              << (incomplete - capped) << " exhausted the source\n";
  }
  const bool have_fits =
      store.has_value() ? !store->fits.empty() : !report.fits.empty();
  if (have_fits) {
    util::Table table({"algo", "profile", "exponent", "expected", "r^2"});
    if (store.has_value()) {
      for (const report::FitRow& fit : store->fits) {
        table.row()
            .cell(store->algo_dict.token(fit.algo_id))
            .cell(store->profile_dict.token(fit.profile_id))
            .cell(fit.exponent, 3)
            .cell(fit.expected, 3)
            .cell(fit.r2, 4);
      }
    } else {
      for (const campaign::FitResult& fit : report.fits) {
        table.row()
            .cell(fit.algo)
            .cell(fit.profile)
            .cell(fit.exponent, 3)
            .cell(fit.expected, 3)
            .cell(fit.r2, 4);
      }
    }
    std::cout << "power-law fits (mean ~ scale * n^exponent):\n";
    table.print(std::cout);
  }
  if (format == ReportFormat::kBinary) {
    if (store.has_value()) {
      report::save_store_file(out_path, *store, flags.io());
    } else {
      report::save_store_file(
          out_path, report::CellStore::from_report(report), flags.io());
    }
  } else if (store.has_value()) {
    store->export_report_file(out_path, flags.io());
  } else {
    campaign::write_report_file(out_path, report, flags.io());
  }
  std::cout << "report written to " << out_path << "\n";

  const std::string baseline_path = args.get_string("baseline", "");
  if (!baseline_path.empty()) {
    const campaign::Report baseline = load_report_any(baseline_path);
    if (store.has_value()) report = store->to_report();
    campaign::GateOptions gate_opts;
    gate_opts.rel_threshold = args.get_double("gate-rel", 0.05);
    gate_opts.inject_factor = args.get_double("gate-inject", 1.0);
    const campaign::GateResult verdict =
        campaign::gate_against_baseline(baseline, report, gate_opts);
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
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() != 3) {
    throw util::UsageError("report export requires exactly one report path");
  }
  const report::CellStore store = load_store_any(pos[2]);
  const std::string out_path = args.get_string("out", "-");
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
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() != 3) {
    throw util::UsageError("report import requires exactly one report path");
  }
  const report::CellStore store = load_store_any(pos[2]);
  const std::string out_path = args.get_string("out", pos[2] + ".bin");
  report::save_store_file(out_path, store);
  std::cout << "imported " << store.cell_count() << " cells ("
            << store.samples.size() << " samples) to " << out_path << "\n";
  return 0;
}

int run_report_info_cmd(const util::ArgParser& args) {
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() != 3) {
    throw util::UsageError("report info requires exactly one report path");
  }
  const std::string& path = pos[2];
  const bool binary = report::is_binary_report_file(path);
  const report::CellStore store = load_store_any(path);
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
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() < 3) {
    throw util::UsageError("report merge requires shard report paths");
  }
  std::vector<report::CellStore> parts;
  parts.reserve(pos.size() - 2);
  for (std::size_t i = 2; i < pos.size(); ++i) {
    parts.push_back(load_store_any(pos[i]));
  }
  const std::size_t part_count = parts.size();
  const report::CellStore merged = report::CellStore::merge(std::move(parts));
  const std::string out_path = args.get_string("out", "BENCH_sweep.bin");
  // Unlike sweep, the columnar family defaults to its native container.
  const std::string fmt = args.get_string("format", "binary");
  if (fmt == "jsonl") {
    merged.export_report_file(out_path);
  } else if (fmt == "binary") {
    report::save_store_file(out_path, merged);
  } else {
    throw util::UsageError("--format must be jsonl or binary");
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
  const std::uint64_t cells = args.get_u64("cells", 1'000'000);
  const std::uint64_t trials = args.get_u64("trials", 4);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::string dir = args.get_string("dir", ".");
  if (cells < 2 || trials < 1) {
    throw util::UsageError("report bench requires --cells >= 2, --trials "
                           ">= 1");
  }
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
  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) {
    std::string content = obs::to_jsonl(head) + "\n" +
                          obs::to_jsonl(path_event("columnar", columnar)) +
                          "\n" + obs::to_jsonl(path_event("jsonl", jsonl)) +
                          "\n" + obs::to_jsonl(summary) + "\n";
    robust::atomic_write_file(out_path, content);
    std::cout << "bench report written to " << out_path << "\n";
  }

  const std::string gate_path = args.get_string("gate", "");
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

int run_report_cmd(const util::ArgParser& args) {
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() < 2) {
    throw util::UsageError(
        "report requires a subcommand: export|import|info|merge|bench");
  }
  const std::string& sub = pos[1];
  if (sub == "export") return run_report_export_cmd(args);
  if (sub == "import") return run_report_import_cmd(args);
  if (sub == "info") return run_report_info_cmd(args);
  if (sub == "merge") return run_report_merge_cmd(args);
  if (sub == "bench") return run_report_bench_cmd(args);
  throw util::UsageError("unknown report subcommand '" + sub + "'");
}

// ---- serve family (docs/SERVE.md) ----------------------------------

std::string require_socket(const util::ArgParser& args) {
  const std::string socket = args.get_string("socket", "");
  if (socket.empty()) {
    throw util::UsageError("this command requires --socket PATH");
  }
  return socket;
}

std::string require_job(const util::ArgParser& args) {
  const std::string job = args.get_string("job", "");
  if (job.empty()) throw util::UsageError("this command requires --job ID");
  return job;
}

/// Print a daemon error line and map its code to the CLI exit code.
int daemon_error(const obs::Event& response) {
  std::cerr << "daemon error: " << response.str_or("message", "?") << "\n";
  const std::uint64_t code = response.u64_or("code", 1);
  return code != 0 ? static_cast<int>(code) : 1;
}

int run_serve_cmd(const util::ArgParser& args) {
  serve::DaemonOptions opts;
  opts.socket_path = require_socket(args);
  opts.core.spool_dir = args.get_string("spool", "");
  if (opts.core.spool_dir.empty()) {
    throw util::UsageError("serve requires --spool DIR");
  }
  opts.core.jobs = args.get_u64("jobs", 0);
  opts.core.slots = args.get_u64("slots", 0);
  opts.core.stream_buffer = args.get_u64("stream-buffer", 64);
  opts.core.timing = !args.has("no-timing");

  std::ofstream trace_file;
  obs::JsonlSink trace_sink(trace_file);
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) throw util::IoError("cannot open --trace " + trace_path);
    opts.core.trace = &trace_sink;
  }

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
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() != 2) {
    throw util::UsageError("submit requires exactly one manifest path");
  }
  std::ifstream is(pos[1], std::ios::binary);
  if (!is) throw util::IoError("cannot open manifest '" + pos[1] + "'");
  std::ostringstream manifest;
  manifest << is.rdbuf();

  serve::SubmitRequest request;
  request.manifest_text = manifest.str();
  request.client = args.get_string("client", "anon");
  request.weight = args.get_u64("weight", 1);
  request.deadline_ms = args.get_u64("deadline-ms", 0);
  request.box_budget = args.get_u64("box-budget", 0);
  request.fault_spec = args.get_string("fault", "");
  request.fault_seed = args.get_u64("fault-seed", 0);
  request.retries = static_cast<std::uint32_t>(args.get_u64("retries", 0));

  const obs::Event response =
      serve::roundtrip(require_socket(args), serve::submit_event(request));
  if (response.type == "error") return daemon_error(response);
  std::cout << obs::to_jsonl(response) << "\n";
  return 0;
}

int run_status_cmd(const util::ArgParser& args) {
  const std::string socket = require_socket(args);
  obs::Event request("status");
  const std::string job = args.get_string("job", "");
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
  request.str("job", require_job(args));
  const obs::Event response = serve::roundtrip(require_socket(args), request);
  if (response.type == "error") return daemon_error(response);
  std::cout << obs::to_jsonl(response) << "\n";
  return 0;
}

int run_results_cmd(const util::ArgParser& args) {
  const std::string out_path = args.get_string("out", "");
  std::function<void(const std::string&)> on_progress;
  if (args.has("progress")) {
    on_progress = [](const std::string& line) { std::cerr << line << "\n"; };
  }
  const serve::ResultsEnd end = serve::stream_results(
      require_socket(args), require_job(args), on_progress);
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

int run(const util::ArgParser& args) {
  if (args.positionals().empty()) return usage();
  const std::string cmd = args.positionals().front();
  // Hidden chaos-harness flag (tools/chaos_sweep.sh, not in help): raise
  // SIGKILL at the Nth durable write, after persisting only half of it —
  // the crash-kill bit-identity drill. Queried unconditionally so the
  // unknown-flag warning never fires for it.
  const std::uint64_t crash_after = args.get_u64("crash-after", 0);
  if (crash_after != 0) robust::CrashPoint::instance().arm(crash_after);
  if (cmd == "help") {
    return args.positionals().size() > 1 ? help_for(args.positionals()[1])
                                         : usage();
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
  if (cmd == "mc" || cmd == "trace" || cmd == "analytic" ||
      cmd == "parallel") {
    reject_retired_flags(args);
  }
  if (cmd == "parallel") return run_parallel_cmd(args);
  if (cmd == "sweep") return run_sweep_cmd(args);
  if (cmd == "report") return run_report_cmd(args);
  if (cmd == "serve") return run_serve_cmd(args);
  if (cmd == "submit") return run_submit_cmd(args);
  if (cmd == "status") return run_status_cmd(args);
  if (cmd == "cancel") return run_cancel_cmd(args);
  if (cmd == "results") return run_results_cmd(args);

  const model::RegularParams p = params_from(args);

  if (cmd == "analytic") {
    const std::uint64_t n_max =
        util::ipow(p.b, static_cast<unsigned>(args.get_u64("kmax", 6)));
    const campaign::ProfileSpec spec =
        profile_from(args, campaign::Workload::kRatio, "shuffled");
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
    const std::string path = args.get_string("file", "");
    if (path.empty()) throw util::UsageError("replay requires --file");
    const auto boxes = profile::load_profile_file(path);
    const std::uint64_t n =
        args.get_u64("n", util::ipow(p.b, static_cast<unsigned>(
                                              args.get_u64("kmax", 6))));
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
    const std::string path = args.get_string("file", "");
    if (path.empty()) throw util::UsageError("save-worst requires --file");
    const std::uint64_t n = args.get_u64("n", 256);
    profile::WorstCaseSource source(p.a, p.b, n);
    const auto boxes = profile::materialize(source);
    std::ostringstream comment;
    comment << "M_{" << p.a << "," << p.b << "}(" << n << ")";
    profile::save_profile_file(path, boxes, comment.str());
    std::cout << "wrote " << boxes.size() << " boxes to " << path << "\n";
  } else if (cmd == "render") {
    const std::uint64_t n = args.get_u64("n", 256);
    std::cout << profile::describe_worst_case(p.a, p.b, n) << "\n";
    profile::WorstCaseSource source(p.a, p.b, n);
    const auto boxes = profile::materialize(source);
    std::cout << profile::render_profile_ascii(
        boxes, args.get_u64("width", 100), args.get_u64("height", 14),
        !args.has("linear"));
  } else if (cmd == "trace") {
    const int rc = run_trace(args, p);
    if (rc != 0) return rc;
  } else if (cmd == "mc") {
    const int rc = run_mc(args, p);
    if (rc != 0) return rc;
  } else if (cmd == "multiplies") {
    util::Table table({"n", "completed executions", "log_b n + 1"});
    for (unsigned k = static_cast<unsigned>(args.get_u64("kmin", 3));
         k <= args.get_u64("kmax", 7); ++k) {
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
  } else {
    throw util::UsageError("unknown command '" + cmd + "'");
  }

  for (const auto& flag : args.unknown_flags())
    std::cerr << "warning: unused flag --" << flag << "\n";
  return 0;
}

}  // namespace

// Exit-code discipline (docs/ROBUSTNESS.md): scripts driving long
// campaigns must be able to tell "you called me wrong" (2) from "your
// input file is bad" (3) from "the library's own invariants broke" (4)
// without parsing stderr. Catch order matters — ParseError, IoError and
// UsageError all derive from CheckError.
int main(int argc, char** argv) {
  try {
    return run(util::ArgParser(argc, argv));
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

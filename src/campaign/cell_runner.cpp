#include "campaign/cell_runner.hpp"

#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "algos/adaptive_sort.hpp"
#include "algos/funnelsort.hpp"
#include "algos/fw.hpp"
#include "algos/mm.hpp"
#include "algos/sim_data.hpp"
#include "algos/sort.hpp"
#include "core/workloads.hpp"
#include "obs/span.hpp"
#include "paging/address_space.hpp"
#include "paging/block_run.hpp"
#include "paging/ca_machine.hpp"
#include "profile/generators.hpp"
#include "profile/square_approx.hpp"
#include "profile/transforms.hpp"
#include "profile/worst_case.hpp"
#include "util/check.hpp"

namespace cadapt::campaign {

std::shared_ptr<const profile::BoxDistribution> make_distribution(
    const ProfileSpec& spec, const model::RegularParams& params,
    std::uint64_t n) {
  if (spec.kind == ProfileKind::kShuffled) {
    return core::census_distribution(params, n);
  }
  if (spec.kind != ProfileKind::kIid) {
    throw util::ParseError("profile '" + spec.token +
                           "' has no box distribution (expected shuffled or "
                           "iid:DIST:...)");
  }
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
  throw util::CheckError("unreachable iid distribution '" + spec.dist + "'");
}

namespace {

engine::RobustTrialRunner ratio_runner(const Cell& cell,
                                       const CellRunOptions& options) {
  const model::RegularParams& p = cell.algo.params;
  const std::uint64_t n = cell.n;
  engine::McOptions mc;  // only the workload-shaping fields matter here
  mc.semantics = options.semantics;
  mc.placement = options.placement;
  mc.max_boxes = options.max_boxes;
  mc.per_box = options.per_box;
  mc.faults = options.faults;
  mc.cancel = options.cancel;
  switch (cell.profile.kind) {
    case ProfileKind::kWorst:
      return engine::make_regular_trial_runner(
          p, n, core::worst_profile_source(p, n), mc);
    case ProfileKind::kShifted:
      return engine::make_regular_trial_runner(
          p, n, core::cyclic_shift_source(p, n), mc);
    case ProfileKind::kPerturb:
      return engine::make_regular_trial_runner(
          p, n,
          core::size_perturb_source(
              p, n, profile::uniform_real_perturb(cell.profile.farg)),
          mc);
    case ProfileKind::kOrder:
      return core::order_perturb_runner(p, n, /*matched=*/false,
                                        options.semantics);
    case ProfileKind::kOrderMatched:
      return core::order_perturb_runner(p, n, /*matched=*/true,
                                        options.semantics);
    case ProfileKind::kRandScan:
      return core::randomized_scan_runner(p, n, options.semantics);
    case ProfileKind::kShuffled:
    case ProfileKind::kIid:
      return engine::make_regular_trial_runner(
          p, n, core::iid_source(make_distribution(cell.profile, p, n)), mc);
    default:
      throw util::CheckError("profile '" + cell.profile.token +
                             "' is not a ratio workload");
  }
}

/// A fresh box stream for one sort trial. The profile RNG is derived from
/// the trial seed so random profiles decorrelate across trials while the
/// whole trial stays a pure function of its seed.
profile::SourceFactory sort_profile_factory(const ProfileSpec& spec,
                                            std::uint64_t trial_seed) {
  switch (spec.kind) {
    case ProfileKind::kConst: {
      const std::uint64_t size = spec.uargs.at(0);
      return [size] {
        return std::make_unique<profile::VectorSource>(
            std::vector<profile::BoxSize>(64, size));
      };
    }
    case ProfileKind::kUniform: {
      auto dist = std::make_shared<profile::UniformRange>(spec.uargs.at(0),
                                                          spec.uargs.at(1));
      util::Rng rng(util::hash_combine(trial_seed, 0x50f17eull));
      return [dist, rng]() mutable {
        return std::make_unique<profile::DistributionSource>(*dist,
                                                             rng.split());
      };
    }
    case ProfileKind::kSawtooth: {
      const auto m = profile::sawtooth_profile(spec.uargs.at(0),
                                               spec.uargs.at(1));
      const auto boxes = profile::inner_square_profile(m);
      return [boxes] {
        return std::make_unique<profile::VectorSource>(boxes);
      };
    }
    case ProfileKind::kMWorst: {
      const std::uint64_t a = spec.uargs.at(0), b = spec.uargs.at(1);
      const std::uint64_t n = spec.uargs.at(2), scale = spec.uargs.at(3);
      return [a, b, n, scale] {
        return std::make_unique<profile::WorstCaseSource>(a, b, n, scale);
      };
    }
    default:
      throw util::CheckError("profile '" + spec.token +
                             "' is not a sort workload");
  }
}

/// A parsed `sorts` token: which program a cell runs, and the matrix side
/// for mm:N / fw:N (tokens are validated at manifest/CLI parse time).
struct ProgramSpec {
  enum class Kind { kAdaptive, kFunnel, kMerge2, kMm, kFw };
  Kind kind = Kind::kFunnel;
  std::size_t n = 0;  ///< matrix side (mm/fw only)
};

ProgramSpec parse_program(const std::string& token) {
  ProgramSpec prog;
  if (token == "adaptive") {
    prog.kind = ProgramSpec::Kind::kAdaptive;
  } else if (token == "funnel") {
    prog.kind = ProgramSpec::Kind::kFunnel;
  } else if (token == "merge2") {
    prog.kind = ProgramSpec::Kind::kMerge2;
  } else if (token.rfind("mm:", 0) == 0 || token.rfind("fw:", 0) == 0) {
    validate_program_token(token, 0);
    prog.kind = token[0] == 'm' ? ProgramSpec::Kind::kMm
                                : ProgramSpec::Kind::kFw;
    prog.n = static_cast<std::size_t>(std::stoull(token.substr(3)));
  } else {
    throw util::CheckError("unknown program '" + token + "'");
  }
  return prog;
}

/// Work units for the per-unit I/O metric: keys for the sorts, elements
/// for the matrix kernels.
std::uint64_t program_units(const ProgramSpec& prog, std::uint64_t keys) {
  if (prog.kind == ProgramSpec::Kind::kMm ||
      prog.kind == ProgramSpec::Kind::kFw) {
    return static_cast<std::uint64_t>(prog.n) * prog.n;
  }
  return keys;
}

/// Run one program against `machine` and verify its output against an
/// untracked reference; returns the verification verdict. `box_hint` is
/// consulted only by the adaptive sort (must be non-null for it). Matrix
/// inputs are small integers, so the recursive kernels match the
/// reference in exact floating-point equality regardless of summation
/// order.
bool run_program(const ProgramSpec& prog, paging::Machine& machine,
                 std::uint64_t keys, std::uint64_t input_seed,
                 const std::function<std::uint64_t()>& box_hint) {
  paging::AddressSpace space(machine.block_size());
  util::Rng rng(input_seed);
  switch (prog.kind) {
    case ProgramSpec::Kind::kAdaptive:
    case ProgramSpec::Kind::kFunnel:
    case ProgramSpec::Kind::kMerge2: {
      algos::SimVector<std::int64_t> data(machine, space,
                                          static_cast<std::size_t>(keys));
      for (std::size_t i = 0; i < keys; ++i) {
        data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 24));
      }
      if (prog.kind == ProgramSpec::Kind::kAdaptive) {
        CADAPT_CHECK_MSG(box_hint != nullptr,
                         "adaptive sort needs a box-size hint");
        algos::adaptive_merge_sort(machine, space, data, box_hint);
      } else if (prog.kind == ProgramSpec::Kind::kFunnel) {
        algos::funnelsort(machine, space, data);
      } else {
        algos::merge_sort(machine, space, data);
      }
      for (std::size_t i = 1; i < keys; ++i) {
        if (data.raw(i - 1) > data.raw(i)) return false;
      }
      return true;
    }
    case ProgramSpec::Kind::kMm: {
      const std::size_t n = prog.n;
      algos::SimMatrix<double> a(machine, space, n, n);
      algos::SimMatrix<double> b(machine, space, n, n);
      algos::SimMatrix<double> c(machine, space, n, n);
      std::vector<double> a_raw(n * n), b_raw(n * n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t col = 0; col < n; ++col) {
          a.raw(r, col) = a_raw[r * n + col] =
              static_cast<double>(rng.below(64));
          b.raw(r, col) = b_raw[r * n + col] =
              static_cast<double>(rng.below(64));
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
    case ProgramSpec::Kind::kFw: {
      const std::size_t n = prog.n;
      algos::SimMatrix<double> d(machine, space, n, n);
      std::vector<double> d_raw(n * n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t col = 0; col < n; ++col) {
          const double w =
              r == col ? 0.0 : static_cast<double>(1 + rng.below(64));
          d.raw(r, col) = d_raw[r * n + col] = w;
        }
      }
      algos::MatView<double> dv(d);
      algos::fw_recursive(dv);
      const std::vector<double> want =
          algos::fw_reference(std::move(d_raw), n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t col = 0; col < n; ++col) {
          if (d.raw(r, col) != want[r * n + col]) return false;
        }
      }
      return true;
    }
  }
  throw util::CheckError("unreachable program kind");
}

/// One program trial, shoehorned into the engine's RunResult so the
/// shared containment path (run_single_trial) and record format serve
/// both workloads: ratio <- total I/Os (the metric), unit_ratio <- I/Os
/// per work unit, boxes <- boxes started, completed <- output verified.
///
/// With capture_trace set, the first trial to arrive records the block-run
/// trace through a BlockRunRecorder (inputs fixed by the cell seed, so the
/// access stream is trial-invariant) and every trial — including the
/// first — replays that trace into its own machine, keeping all trials on
/// one code path. With options.traces the capture is the program's,
/// shared by its cells; without, the cell's own. The adaptive sort's
/// stream depends on the live box profile, so it falls back to direct
/// runs with the same fixed input.
engine::RobustTrialRunner make_program_runner(const Cell& cell,
                                              const CellRunOptions& options) {
  const ProgramSpec prog = parse_program(cell.sort);
  const std::uint64_t keys = options.keys;
  const std::uint64_t block = options.block;
  const std::uint64_t units = program_units(prog, keys);
  const bool per_access = options.per_access;
  const bool capture = options.capture_trace;
  const bool timing = options.timing;
  const robust::CancelToken* cancel = options.cancel;
  const paging::CaConfig config = ca_config_for(cell, options);
  const bool replayable = replays_trace(cell, capture);
  TraceCache* traces = replayable ? options.traces : nullptr;

  // Shared across the trials that replay it (and across threads when the
  // sweep's --jobs threads or mc's pool split them): the once-recorded
  // trace. A mutex and a flag rather than std::call_once: a capture that
  // throws (CancelledError) must leave later trials free to retry, and
  // call_once's exceptional path hangs them on some toolchains (GCC bug
  // 66146; ThreadSanitizer's pthread_once).
  std::shared_ptr<TraceCache::Capture> state;
  if (traces != nullptr) {
    state = traces->capture_for(cell);
  } else if (replayable) {
    state = std::make_shared<TraceCache::Capture>();
  }

  return [cell, prog, keys, block, units, per_access, capture, timing,
          cancel, config, replayable, traces,
          state](std::uint64_t trial_seed, robust::FaultInjector&) {
    const std::uint64_t input_seed = capture ? cell.seed : trial_seed;
    paging::CaMachine machine(
        std::make_unique<profile::CyclingSource>(
            sort_profile_factory(cell.profile, trial_seed)),
        block, /*record_boxes=*/false, /*recorder=*/nullptr, config);
    if (per_access) machine.set_per_access(true);
    // Poll at every box boundary: the programs make no other calls the
    // driver can intercept, so without this a stuck sort cell would
    // outlive its deadline or a Ctrl-C by an unbounded margin.
    machine.set_cancel(cancel);

    engine::RunResult r;
    if (replayable) {
      {
        const std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->captured) {
          const std::uint64_t started = timing ? obs::steady_now_ns() : 0;
          paging::BlockRunRecorder recorder(block);
          if (per_access) recorder.set_per_access(true);
          // A CancelledError unwinds before `captured` is set, so a
          // half-built trace is never stored or replayed.
          recorder.set_cancel(cancel);
          state->verified =
              run_program(prog, recorder, keys, input_seed, nullptr);
          state->trace = recorder.take();
          state->captured = true;
          if (traces != nullptr) {
            traces->captured(cell, state->trace,
                             timing ? obs::steady_now_ns() - started : 0);
          }
        }
      }
      machine.replay_trace(state->trace);
      r.completed = state->verified;
    } else {
      r.completed = run_program(prog, machine, keys, input_seed, [&machine] {
        return machine.current_box_size();
      });
    }
    r.boxes = machine.boxes_started();
    r.ratio = static_cast<double>(machine.misses());
    r.unit_ratio =
        static_cast<double>(machine.misses()) / static_cast<double>(units);
    return r;
  };
}

}  // namespace

engine::RobustTrialRunner make_cell_runner(const Cell& cell,
                                           const CellRunOptions& options) {
  return cell.sort.empty() ? ratio_runner(cell, options)
                           : make_program_runner(cell, options);
}

engine::RunResult run_program_traced(const Cell& cell,
                                     const CellRunOptions& options,
                                     std::uint64_t trial_seed,
                                     obs::PagingRecorder& recorder) {
  const ProgramSpec prog = parse_program(cell.sort);
  paging::CaMachine machine(
      std::make_unique<profile::CyclingSource>(
          sort_profile_factory(cell.profile, trial_seed)),
      options.block, /*record_boxes=*/false, &recorder,
      ca_config_for(cell, options));
  engine::RunResult r;
  r.completed = run_program(prog, machine, options.keys, trial_seed,
                            [&machine] { return machine.current_box_size(); });
  r.boxes = machine.boxes_started();
  r.ratio = static_cast<double>(machine.misses());
  r.unit_ratio = static_cast<double>(machine.misses()) /
                 static_cast<double>(program_units(prog, options.keys));
  return r;
}

TraceCache::TraceCache(const CellRunOptions& options, EventFn on_event)
    : capture_(options.capture_trace), on_event_(std::move(on_event)) {}

bool TraceCache::replays(const Cell& cell) const {
  return replays_trace(cell, capture_);
}

void TraceCache::add_user(const Cell& cell) {
  if (!replays(cell)) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++entries_[Key(cell.sort, cell.seed)].users;
}

void TraceCache::release(const Cell& cell) {
  if (!replays(cell)) return;
  bool freed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(Key(cell.sort, cell.seed));
    CADAPT_CHECK_MSG(it != entries_.end() && it->second.users != 0,
                     "trace of cell " << cell.index << " released uncounted");
    if (--it->second.users != 0) return;
    freed = it->second.captured;
    entries_.erase(it);
  }
  if (freed && on_event_) {
    obs::Event event("trace_release");
    event.str("program", cell.sort).u64("seed", cell.seed);
    on_event_(event);
  }
}

std::shared_ptr<TraceCache::Capture> TraceCache::capture_for(
    const Cell& cell) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key(cell.sort, cell.seed));
  CADAPT_CHECK_MSG(it != entries_.end() && it->second.users != 0,
                   "cell " << cell.index << " replays an uncounted trace");
  return it->second.capture;
}

void TraceCache::captured(const Cell& cell,
                          const paging::BlockRunTrace& trace,
                          std::uint64_t capture_ns) {
  std::uint64_t users = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(Key(cell.sort, cell.seed));
    if (it != entries_.end()) {
      it->second.captured = true;
      users = it->second.users;
    }
  }
  if (!on_event_) return;
  obs::Event event("trace_capture");
  event.str("program", cell.sort)
      .u64("seed", cell.seed)
      .u64("runs", trace.runs().size())
      .u64("bytes", trace.runs().size() * sizeof(paging::BlockRun) +
                        trace.replay_steps().size() *
                            sizeof(paging::BlockRunTrace::ReplayStep))
      .u64("cells", users)
      .u64("capture_ns", capture_ns);
  on_event_(event);
}

CellRunOptions cell_options_from(const Manifest& manifest) {
  CellRunOptions options;
  options.semantics = manifest.semantics;
  options.placement = manifest.placement;
  options.max_boxes = manifest.max_boxes;
  options.keys = manifest.keys;
  options.block = manifest.block;
  options.capture_trace = manifest.trace_replay;
  options.tiers = manifest.tiers;
  return options;
}

paging::CaConfig ca_config_for(const Cell& cell,
                               const CellRunOptions& options) {
  paging::CaConfig config;
  if (!cell.policy.empty()) {
    config.policy = paging::parse_policy_token(cell.policy);
  }
  if (options.tiers.set) {
    config.tier1_num = options.tiers.tier1_num;
    config.tier1_den = options.tiers.tier1_den;
    config.tier2_blocks = options.tiers.tier2_blocks;
    config.tier2_hit_cost = options.tiers.tier2_hit_cost;
    config.tier2_miss_cost = options.tiers.tier2_miss_cost;
  }
  return config;
}

engine::McOptions trial_options_for(const Cell& cell,
                                     const CellRunOptions& options) {
  engine::McOptions trial_options;
  trial_options.trials = cell.trials;
  trial_options.seed = cell.seed;
  trial_options.max_attempts = options.max_attempts;
  trial_options.faults = options.faults;
  trial_options.cancel = options.cancel;
  trial_options.backoff = options.backoff;
  return trial_options;
}

std::vector<robust::TrialRecord> run_cell(const Cell& cell,
                                          const CellRunOptions& options) {
  const engine::RobustTrialRunner runner = make_cell_runner(cell, options);
  const engine::McOptions trial_options = trial_options_for(cell, options);
  std::vector<robust::TrialRecord> records;
  records.reserve(cell.trials);
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    records.push_back(
        engine::run_single_trial(trial_options, runner, trial,
                                 options.timing));
  }
  return records;
}

}  // namespace cadapt::campaign

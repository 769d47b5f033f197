#include "cli_flags.hpp"

#include <map>
#include <sstream>

#include "util/check.hpp"

namespace cadapt::cli {

namespace {

using util::FlagSpec;
using Flags = std::vector<FlagSpec>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

constexpr std::size_t kAny = static_cast<std::size_t>(-1);

std::vector<Command> build_commands() {
  using enum util::FlagKind;
  // Shared rows and groups, each declared once.
  const Flags shape = {
      {"a", kU64, "subproblems per recursive call", "N", "8"},
      {"b", kU64, "subproblem size divisor: n -> n/b", "N", "4"},
      {"c", kDouble, "scan exponent: O(n^c) scan per call", "X", "1.0"}};
  Flags retired;  // the distribution vocabulary --profile replaced
  for (const char* flag : {"dist", "kdist", "small", "big", "pbig", "size",
                           "lo", "hi", "sort-profile"}) {
    retired.push_back({flag, kRetired,
                       "name the trial with --profile TOKEN, the manifest "
                       "profile grammar (e.g. --profile "
                       "iid:bimodal:4:4096:0.02, or --sort funnel --profile "
                       "uniform:4:64)"});
  }
  const FlagSpec seed = {"seed", kU64, "random seed", "S", "42"};
  const FlagSpec size = {"n", kU64, "problem size (default b^kmax)", "N"};
  const FlagSpec kmax = {"kmax", kU64, "n = b^K when --n is absent", "K", "6"};
  const FlagSpec semantics = {"semantics", kChoice, "box semantics",
                              "optimistic|budgeted", "optimistic"};
  const FlagSpec no_timing = {"no-timing", kBool,
                              "zero wall clocks: byte-identical output"};
  const FlagSpec per_box = {"per-box", kBool,
                            "force the per-box reference driver "
                            "(bit-identical; docs/PERF.md)"};
  const FlagSpec per_access = {"per-access", kBool,
                               "sort programs: per-word paging dispatch "
                               "(bit-identical; docs/PERF.md)"};
  const std::string profile = "the trial: one manifest `profiles` token "
                              "(docs/SWEEPS.md), e.g. iid:geometric:6";
  const FlagSpec jobs = {
      "jobs", kU64, "worker threads (default: hardware concurrency)", "J"};
  const FlagSpec trace_to = {"trace", kString, "JSONL telemetry path", "F"};
  // The trial of one campaign cell: `mc` runs it, `trace` instruments it.
  const Flags cell = {
      size, kmax, seed, semantics, no_timing, per_access,
      {"sort", kString,
       "run a real program instead: adaptive|funnel|merge2|mm:N|fw:N "
       "(--profile then defaults to const:64)", "NAME"},
      {"policy", kString, "sort programs: replacement policy "
       "lru|clock|arc|car|assoc:W (default lru; docs/PAGING.md)", "P"},
      {"tiers", kString, "sort programs: two-tier machine (tier-2 "
       "capacity, costs, tier-1 share)", "T2CAP:HIT:MISS[:NUM:DEN]"},
      {"keys", kU64, "sort programs: keys", "K", "16384", 2},
      {"block", kU64, "sort programs: words per block", "B", "8", 1},
      {"capture-trace", kBool,
       "sort programs: record the block-run trace once, replay per trial"}};
  // The robustness flags of RobustFlags (docs/ROBUSTNESS.md).
  const FlagSpec retries = {
      "retries", kU64, "extra reseeded attempts per failing trial", "R", "0"};
  const FlagSpec fault = {"fault", kString,
                          "inject faults site=rate,... at trial_body "
                          "box_draw sink_write paging_step or the durable "
                          "writers' io_write io_short_write io_enospc "
                          "io_fsync", "SPEC"};
  const FlagSpec fault_seed = {
      "fault-seed", kU64, "fault-plan seed (default: seed ^ 0xFA17)", "S"};
  const FlagSpec deadline = {"deadline-ms", kU64, "wall-clock deadline: a "
                             "watchdog cancels mid-trial, TRUNCATED "
                             "(deadline)", "D", "", 1};
  const FlagSpec box_budget = {"box-budget", kU64, "total-box budget, 0 = "
                               "none: TRUNCATED (budget), never a biased "
                               "mean", "B", "0"};
  const Flags robust = {
      retries, fault, fault_seed, deadline, box_budget,
      {"retry-backoff-ms", kU64,
       "seeded exponential backoff between attempts", "B", "0"},
      {"checkpoint", kString,
       "durably record finished work; resume a killed run with --resume",
       "F"},
      {"resume", kBool, "continue from --checkpoint (its header must match)"}};
  const FlagSpec socket = {"socket", kString, "the daemon's Unix socket",
                           "PATH", "", 0, true};
  const FlagSpec job = {"job", kString, "daemon job id", "ID", "", 0, true};

  std::vector<Command> table = {
      {"analytic", "analytic", "", 0, 0,
       "exact Lemma 3 stopping-time table for --profile up to n = b^--kmax",
       shape + retired +
           Flags{{"kmax", kU64, "last row: n = b^K", "K", "6"},
                 {"profile", kString, profile, "TOKEN", "shuffled"}}},
      {"render", "render", "", 0, 0, "ASCII-render M_{a,b}(--n) (Figure 1)",
       shape + Flags{{"n", kU64, "problem size", "N", "256"},
                     {"width", kU64, "columns", "W", "100"},
                     {"height", kU64, "rows", "H", "14"},
                     {"linear", kBool, "linear y axis (default log)"}}},
      {"multiplies", "multiplies", "", 0, 0,
       "count executions completed on one pass of M_{a,b}(n)",
       shape + Flags{{"kmin", kU64, "smallest n = b^K", "K", "3"},
                     {"kmax", kU64, "largest n = b^K", "K", "7"}}},
      {"replay", "replay", "", 0, 0, "run (a,b,c) on a saved profile",
       shape + Flags{size, kmax,
                     {"file", kString, "the profile, one box per line", "F",
                      "", 0, true},
                     {"cycle", kBool, "cycle the profile, never run out"}}},
      {"save-worst", "save-worst", "", 0, 0,
       "write M_{a,b}(--n) to --file, one box per line",
       shape + Flags{{"n", kU64, "problem size", "N", "256"},
                     {"file", kString, "output path", "F", "", 0, true}}},
      {"trace", "trace", "", 0, 0, "instrumented run: JSONL event trace plus "
       "summary tables (docs/OBSERVABILITY.md)",
       shape + cell + retired +
           Flags{{"profile", kString, profile, "TOKEN", "worst"},
                 {"trials", kU64, "T >= 2 adds a Monte-Carlo stage with "
                  "per-trial events", "T", "1"},
                 {"runs", kBool, "run/bulk events, not one per box: enables "
                  "the bulk fast path"},
                 {"out", kString, "JSONL path (default: JSONL to stdout, "
                  "summary to stderr)", "F"}}},
      {"mc", "mc", "", 0, 0, "robust Monte-Carlo campaign over the trial of "
       "one sweep cell (docs/ROBUSTNESS.md)",
       shape + cell + robust + retired +
           Flags{{"profile", kString, profile, "TOKEN", "shuffled"},
                 {"trials", kU64, "Monte-Carlo trials", "T", "64"},
                 {"checkpoint-every", kU64, "trials per checkpoint commit",
                  "K", "256"},
                 {"errors-shown", kU64, "trial errors to print", "E", "5"},
                 {"workers", kU64, "run the trials on an N-thread pool", "N",
                  "", 1},
                 per_box}},
      {"parallel", "parallel", "", 0, 0,
       "seeded work-stealing parallel engine (docs/PARALLEL.md)",
       shape + retired +
           Flags{seed, semantics, no_timing,
                 {"k", kU64, "problem size n = b^K", "K", "6"},
                 {"workers", kU64, "simulated workers", "P", "4", 1},
                 {"carve", kChoice, "how a global box is carved into "
                  "per-worker slices (E15 policies; static = equal shares)",
                  "static|lru|flush", "static"},
                 {"flush-period", kU64, "carve flush: slices crash to 1 "
                  "block every F global boxes; 0 = every --epoch", "F", "0"},
                 {"epoch", kU64, "boxes per steal barrier", "E", "64", 1},
                 {"split-depth", kU64, "pre-split depth; 0 = auto (a^D >= 4P)",
                  "D", "0"},
                 {"boxes", kU64, "global box cap (2^40)", "B",
                  "1099511627776"},
                 {"placement", kChoice, "scan placement",
                  "end|interleaved|adversary", "end"},
                 {"adversary-seed", kU64, "--placement adversary seed", "S",
                  "0"},
                 {"box-lo", kU64, "smallest i.i.d. uniform box", "L", "4", 1},
                 {"box-hi", kU64, "largest i.i.d. uniform box", "H", "64"},
                 {"scale", kString, "worker counts (1,2,4,8): the scaling "
                  "artifact instead", "LIST"},
                 {"sort", kString, "--scale cell program", "NAME", "adaptive"},
                 {"profile", kString, "--scale cell profile (sort grammar)",
                  "TOKEN", "uniform:4:64"},
                 {"trials", kU64, "--scale cell trials", "T", "8"},
                 {"keys", kU64, "--scale cell keys", "K", "4096"},
                 {"block", kU64, "--scale cell words per block", "B", "8"},
                 {"out", kString, "--scale: JSONL path (implies --json)", "F"},
                 {"json", kBool, "--scale: emit JSONL to stdout or --out"}}},
      {"sweep", "sweep", "<manifest> | --merge <report>...", 1, kAny,
       "run a declarative campaign, or merge shard reports (docs/SWEEPS.md)",
       robust + Flags{jobs, no_timing, per_box, per_access, trace_to,
                      {"format", kChoice, "report encoding; binary is the "
                       "columnar container (docs/REPORT.md)", "jsonl|binary",
                       "jsonl"},
                      {"workers", kU64, "accepted and ignored: the --jobs "
                       "threads already split a cell's trials", "W", "", 1},
                      {"out", kString, "report path", "F", "BENCH_sweep.json"},
                      {"merge", kBool,
                       "merge the shard reports given (either encoding)"},
                      {"shards", kU64, "run only cells with index % S == "
                       "--shard-index", "S", "1"},
                      {"shard-index", kU64, "this run's shard", "I", "0"},
                      {"capture-trace", kBool, "sort manifests: set "
                       "trace_replay (changes the config_hash)"},
                      {"baseline", kString, "exit 4 if a cell regressed "
                       "against this report of the same campaign", "F"},
                      {"gate-rel", kDouble, "the gate's relative slowdown "
                       "floor", "X", "0.05"},
                      {"gate-inject", kDouble, "scale current samples first "
                       "(proves the gate fails)", "X", "1.0"}}},
      {"report export", "report", "<report>", 1, 1,
       "binary -> JSONL, the exact bytes sweep writes",
       {{"out", kString, "JSONL path; - is stdout", "F", "-"}}},
      {"report import", "report", "<report>", 1, 1, "JSONL -> binary",
       {{"out", kString, "binary path (default <report>.bin)", "F"}}},
      {"report info", "report", "<report>", 1, 1,
       "header, dictionaries and section summary"},
      {"report merge", "report", "<report>...", 1, kAny,
       "column-native shard merge",
       {{"out", kString, "merged report path", "F", "BENCH_sweep.bin"},
        {"format", kChoice, "encoding", "jsonl|binary", "binary"}}},
      {"report bench", "report", "", 0, 0,
       "columnar-vs-JSONL write/load/merge benchmark",
       {seed, {"cells", kU64, "synthetic cells", "N", "1000000", 2},
        {"trials", kU64, "trials per cell", "T", "4", 1},
        {"dir", kString, "scratch directory for the shards", "D", "."},
        {"out", kString, "report_bench JSONL path", "F"},
        {"gate", kString, "report_bench_gate floors; exit 4 on a miss", "F"},
        {"keep", kBool, "keep the scratch shards"}}},
      {"serve", "serve", "", 0, 0,
       "long-lived multi-tenant campaign daemon (docs/SERVE.md)",
       {socket, jobs, no_timing, trace_to,
        {"spool", kString, "durable job state", "DIR", "", 0, true},
        {"slots", kU64, "max in-flight cells (default: pool size)", "N"},
        {"stream-buffer", kU64, "result lines buffered per job before its "
         "dispatch pauses", "L", "64"}}},
      {"submit", "serve", "<manifest>", 1, 1,
       "submit a manifest; prints the job_accepted line",
       {socket, deadline, box_budget, fault, fault_seed, retries,
        {"client", kString, "fair-share tenant", "NAME", "anon"},
        {"weight", kU64, "the client's WRR weight", "W", "1"}}},
      {"status", "serve", "", 0, 0, "one job_status line per job",
       {socket, {"job", kString, "only this job", "ID"}}},
      {"cancel", "serve", "", 0, 0,
       "cooperative cancel; the truncated report is still written",
       {socket, job}},
      {"results", "serve", "", 0, 0,
       "stream a job's cells, then write its report bytes",
       {socket, job, {"out", kString, "report path (default stdout)", "F"},
        {"progress", kBool, "print streamed cells to stderr"}}},
      {"version", "version", "", 0, 0,
       "build provenance, as in every report's sweep_env line (--json: "
       "the daemon's hello payload)",
       {{"json", kBool, "one JSONL line"}}},
      {"help", "help", "[command]", 0, 1, "this text, or a command's page"},
  };
  for (Command& command : table) {
    // Hidden chaos-harness hook (tools/chaos_sweep.sh): SIGKILL at the
    // Nth durable write, after persisting only half of it.
    command.flags.push_back({"crash-after", kU64,
                             "SIGKILL at the Nth durable write", "N", "", 0,
                             false, true});
  }
  return table;
}

// `head`, then `text` word-wrapped in a column from 24 to 79.
void two_columns(std::ostream& os, const std::string& head,
                 const std::string& text) {
  os << head << (head.size() < 24 ? std::string(24 - head.size(), ' ')
                                  : "\n" + std::string(24, ' '));
  std::size_t column = 24;
  std::istringstream words(text);
  for (std::string word; words >> word; column += word.size()) {
    if (column > 24 && column + 1 + word.size() > 79) {
      os << "\n" << std::string(24, ' ');
      column = 24;
    } else if (column > 24) {
      os << ' ';
      ++column;
    }
    os << word;
  }
  os << "\n";
}

void print_usage(std::ostream& os) {
  os << "cadapt - cache-adaptive analysis toolkit (SPAA 2020 reproduction)\n"
        "\nusage: cadapt <command> [arguments] [flags]\n\ncommands:\n";
  for (const Command& command : commands()) {
    two_columns(os, "  " + command.name + " " + command.synopsis,
                command.summary);
  }
  os << "\n'cadapt help <command>' lists a command's flags and defaults.\n"
        "\nexit codes:\n"
        "  0 success   2 usage error   3 input error (bad/unreadable file)\n"
        "  4 internal check failure    1 other\n";
}

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> table = build_commands();
  return table;
}

const Command& find_command(const std::vector<std::string>& words) {
  if (words.empty() || words[0].rfind("--", 0) == 0) {
    throw util::UsageError("expected a command before any flag");
  }
  std::string name = words[0];
  if (name == "report") {
    if (words.size() < 2 || words[1].rfind("--", 0) == 0) {
      throw util::UsageError(
          "report requires a subcommand: export|import|info|merge|bench");
    }
    name += " " + words[1];
  }
  for (const Command& command : commands()) {
    if (command.name == name) return command;
  }
  throw util::UsageError("unknown command '" + name + "'");
}

util::ArgParser parse_args(const Command& command,
                           const std::vector<std::string>& words) {
  try {
    const long skip = command.name.find(' ') == std::string::npos ? 1 : 2;
    util::ArgParser args(
        std::vector<std::string>(words.begin() + skip, words.end()),
        command.flags);
    const std::size_t n = args.positionals().size();
    if (n < command.min_args || n > command.max_args) {
      throw util::UsageError(
          command.name + " takes " +
          (command.max_args == 0 ? "no positional arguments"
                                 : command.synopsis) +
          ", got " + std::to_string(n));
    }
    return args;
  } catch (const util::UsageError& e) {
    throw util::UsageError(std::string(e.what()) + " (see 'cadapt help " +
                           command.topic + "')");
  }
}

void print_help(std::ostream& os, const std::string& name) {
  if (name.empty()) return print_usage(os);
  std::string topic;
  for (const Command& command : commands()) {
    if (command.name == name || command.topic == name) topic = command.topic;
  }
  if (topic.empty()) throw util::UsageError("unknown command '" + name + "'");
  // The prose a page keeps: what the flags cannot say about a model.
  static const std::map<std::string, std::string> prose = {
      {"sweep",
       "The manifest (bench/manifests/, docs/SWEEPS.md) expands into a\n"
       "deterministic grid of cells, each running seeded Monte-Carlo\n"
       "trials. The report is a pure function of the manifest: bit-identical\n"
       "across --jobs, shard splits merged with --merge, and kill + --resume\n"
       "(--no-timing zeroes the wall clocks too). Checkpoints and reports\n"
       "are durably committed: a kill -9 loses at most the cells in flight.\n"
       "--baseline fails a cell whose bootstrap CI is disjoint from the\n"
       "baseline's AND whose mean rose by more than --gate-rel.\n"},
      {"parallel",
       "Workers run one (a,b,c)-regular recursion tree from Chase-Lev deques;\n"
       "an E15 policy carves each global box into per-worker cache slices.\n"
       "Steals resolve at epoch barriers with seeded victims, so the result\n"
       "is a pure function of the flags, and --workers 1 is byte-identical\n"
       "to the sequential engine. --scale reports per P: sim_speedup =\n"
       "rounds_1/rounds_P (a round is one global box), steals vs the\n"
       "Cole-Ramachandran-style bound P * (split_depth + k), the capacity\n"
       "overhead (P * rounds_P - rounds_1) / rounds_1, and the wall-clock\n"
       "speedup of one real adaptive-sort cell.\n"},
      {"serve",
       "The daemon takes sweep manifests over a Unix-domain socket, runs\n"
       "their cells on one pool with weighted round-robin fair share across\n"
       "clients, and streams results back (docs/SERVE.md). Jobs are durably\n"
       "spooled: a daemon restarted on the same --spool resumes them, and\n"
       "each report is byte-identical to one-shot `cadapt sweep`. Client\n"
       "exit codes mirror the daemon's error lines: 2 usage, 3 input, 4\n"
       "internal.\n"},
  };
  const auto page = prose.find(topic);
  if (page != prose.end()) os << page->second << "\n";
  for (const Command& command : commands()) {
    if (command.topic != topic) continue;
    os << "cadapt " << command.name << " " << command.synopsis
       << (command.synopsis.empty() ? "" : " ") << "[flags]\n";
    two_columns(os, "", command.summary);
    std::string retired_names, retired_help;
    for (const FlagSpec& flag : command.flags) {
      if (flag.kind == util::FlagKind::kRetired) {
        retired_names += " --" + flag.name;
        retired_help = flag.help;
      } else if (!flag.hidden) {
        std::string text = flag.help;
        if (flag.min != 0) text += " (>= " + std::to_string(flag.min) + ")";
        if (flag.required) text += " (required)";
        if (!flag.def.empty()) text += " (default " + flag.def + ")";
        two_columns(os, "  --" + flag.name + " " + flag.meta, text);
      }
    }
    if (!retired_names.empty()) {
      two_columns(os, "  retired (exit 2):",
                  retired_names + ": " + retired_help);
    }
    os << "\n";
  }
}

}  // namespace cadapt::cli

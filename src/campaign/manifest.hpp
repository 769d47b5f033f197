// Declarative sweep manifests (docs/SWEEPS.md): a small key=value file
// describing a full experiment campaign — algorithms × profiles × problem
// sizes × trials — that the planner (campaign/plan.hpp) expands into a
// deterministic cell grid. The manifest is the single source of truth for
// a sweep: its canonical fingerprint is hashed into every report and
// checkpoint, so mixing artifacts across campaigns is refused, not
// silently blended.
//
// Grammar (one `key = value` per line, `#` starts a comment, lists are
// whitespace-separated):
//
//   name      = e2_log_gap              # required, report label
//   workload  = ratio | sort            # default ratio
//   algos     = 8:4:1 7:4:1             # (a,b,c)-regular shapes (ratio)
//   profiles  = worst shuffled shifted perturb:4 order order-matched
//               randscan iid:geometric:6 iid:uniform-powers:0:6
//               iid:bimodal:4:4096:0.02 iid:point:64 iid:uniform-range:1:256
//               # a ratio profile token may end in @K to cap that profile
//               # at k <= K (e.g. shuffled@7 drops the profile from larger
//               # cells while the rest of the grid keeps the full k range)
//   k         = 2..7                    # n = b^k; range or explicit list
//   trials    = 32                      # per cell (worst cells force 1)
//   seed      = 42
//   semantics = optimistic | budgeted
//   unit_progress = 0 | 1               # footnote-4 ratio (use for a <= b)
//   placement = end | interleaved       # scan placement of every ratio
//               # cell's algorithm (E12's lightweight scan-hiding);
//               # omitted = end (fingerprint unchanged). interleaved is
//               # refused with order/order-matched/randscan, whose
//               # runners fix their own placement
//   max_boxes = 1099511627776           # per-trial box cap
//   workers   = 4                       # intra-cell trial parallelism
//               # (docs/PARALLEL.md): run each cell's trials on a seeded
//               # work-stealing pool. Reports are byte-identical to the
//               # sequential run; omitted or 1 = the historical
//               # sequential cell loop (fingerprint unchanged)
//
// Sort-workload manifests (the E16 head-to-head and the real-algorithm
// E-cells) replace algos/k with:
//
//   sorts     = adaptive funnel merge2 mm:128 fw:128
//               # mm:N / fw:N run MM-Scan / recursive Floyd-Warshall on
//               # an N x N matrix (N a power of two >= 4); the sorts run
//               # on `keys` keys
//   profiles  = const:64 uniform:4:128 sawtooth:128:8 mworst:2:2:512:2
//   keys      = 16384
//   block     = 8
//   policies  = lru clock arc car assoc:4
//               # replacement-policy dimension (docs/PAGING.md): the grid
//               # gains a policy axis; omitted = the historical LRU-only
//               # grid (no axis, fingerprint unchanged)
//   tiers     = 256:1:4 | 256:1:4:1:2
//               # two-tier machine: T2CAP:HITCOST:MISSCOST[:NUM:DEN] —
//               # tier-2 capacity in blocks (0 = share-only single tier),
//               # tier-2 hit/miss costs in box-budget units, optional
//               # tier-1 capacity share num/den (<= 1); omitted = the
//               # historical single-tier machine
//   trace_replay = 0 | 1    # 1: capture each cell's block-run trace on
//               # the first trial and replay it against the remaining
//               # trials' profiles (docs/PERF.md). Inputs are then fixed
//               # per cell (seeded by the cell seed, not the trial seed)
//               # so the access stream is trial-invariant; profile-
//               # dependent programs (adaptive) fall back to direct runs
//               # with the same fixed input.
//
// Unknown keys are rejected (a typo must not silently change a campaign);
// all parse failures throw util::ParseError with the line number.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/exec.hpp"
#include "model/regular.hpp"

namespace cadapt::campaign {

enum class Workload { kRatio, kSort };

enum class ProfileKind {
  // ratio workload (see core/workloads.hpp for the measured object)
  kWorst,         ///< deterministic M_{a,b}(n) (trials forced to 1)
  kShuffled,      ///< i.i.d. from the census of M_{a,b}(n) (Theorem 1)
  kShifted,       ///< cyclic shift by a random box offset (negative)
  kPerturb,       ///< box sizes scaled by i.i.d. X ~ U[0,t] (negative)
  kOrder,         ///< order-perturbed M_{a,b}, canonical scans
  kOrderMatched,  ///< order-perturbed M_{a,b}, matched scans (witness)
  kRandScan,      ///< fixed M_{a,b}, randomized scan placement (E18)
  kIid,           ///< i.i.d. from an explicit distribution
  // sort workload (boxes drive a paging::CaMachine)
  kConst,     ///< constant boxes: const:SIZE
  kUniform,   ///< i.i.d. uniform boxes: uniform:LO:HI
  kSawtooth,  ///< ramp-and-crash memory profile: sawtooth:PEAK:CYCLES
  kMWorst,    ///< scaled adversarial profile: mworst:A:B:N:SCALE
};

/// One parsed profile token. `token` is the canonical manifest spelling
/// and doubles as the cell label in reports. Numeric arguments live in
/// uargs/farg with per-kind meaning (see the grammar above); they are
/// validated at parse time.
struct ProfileSpec {
  std::string token;
  ProfileKind kind = ProfileKind::kWorst;
  std::string dist;  ///< kIid: geometric|uniform-powers|bimodal|point|uniform-range
  std::vector<std::uint64_t> uargs;
  double farg = 0.0;  ///< kPerturb: t; kIid bimodal: p_big
  /// Ratio profiles only: `@K` suffix capping this profile at k <= K
  /// (0 = uncapped). The planner skips larger k for this profile; the
  /// raw token (with the suffix) enters the fingerprint, so capping a
  /// profile is a campaign change, never a silent subset.
  unsigned kmax = 0;
};

/// One parsed algorithm shape with its canonical "a:b:c" token.
struct AlgoSpec {
  std::string token;
  model::RegularParams params;
};

/// Parsed `tiers =` value: the two-tier machine shape shared by every
/// cell of a sort campaign (docs/PAGING.md). `set` distinguishes "key
/// absent" (historical single-tier machine, fingerprint untouched) from
/// an explicit configuration.
struct TiersSpec {
  bool set = false;
  std::uint64_t tier2_blocks = 0;  ///< 0 = share-only single tier
  std::uint64_t tier2_hit_cost = 1;
  std::uint64_t tier2_miss_cost = 4;
  std::uint64_t tier1_num = 1;  ///< tier-1 capacity share num/den
  std::uint64_t tier1_den = 1;

  /// Canonical spelling: BLOCKS:HIT:MISS, with :NUM:DEN appended only
  /// when the share is not 1.
  std::string token() const;

  friend bool operator==(const TiersSpec&, const TiersSpec&) = default;
};

/// Parse T2CAP:HITCOST:MISSCOST[:NUM:DEN] (the `cadapt mc/sweep --tiers`
/// flag and the manifest `tiers` key). Throws util::ParseError.
TiersSpec parse_tiers_token(const std::string& token);

struct Manifest {
  std::string name;
  Workload workload = Workload::kRatio;
  std::vector<AlgoSpec> algos;
  std::vector<ProfileSpec> profiles;
  std::vector<unsigned> ks;
  std::uint64_t trials = 32;
  std::uint64_t seed = 42;
  engine::BoxSemantics semantics = engine::BoxSemantics::kOptimistic;
  bool unit_progress = false;
  /// Scan placement of every ratio cell; entered into the fingerprint
  /// only when not kEnd, so pre-existing campaigns keep their
  /// config_hash byte-for-byte.
  engine::ScanPlacement placement = engine::ScanPlacement::kEnd;
  std::uint64_t max_boxes = UINT64_C(1) << 40;
  // sort workload
  std::vector<std::string> sorts;  ///< adaptive|funnel|merge2|mm:N|fw:N
  std::uint64_t keys = 16384;
  std::uint64_t block = 8;
  /// Replacement-policy grid axis (canonical tokens: lru|clock|arc|car|
  /// assoc:W). Empty = no axis (the historical LRU-only grid); entered
  /// into the fingerprint only when non-empty.
  std::vector<std::string> policies;
  /// Two-tier machine shape for every cell; fingerprinted only when set.
  TiersSpec tiers;
  /// Record-once/replay-many traces (docs/PERF.md): entered into the
  /// fingerprint only when set, so pre-existing campaigns keep their
  /// config_hash byte-for-byte.
  bool trace_replay = false;
  /// Intra-cell trial parallelism (docs/PARALLEL.md). Results never
  /// depend on it, so it enters the fingerprint only at >= 2; 1 is
  /// byte-identical to the historical sequential cell loop.
  std::uint64_t workers = 1;
};

/// Parse a manifest. Throws util::ParseError (line-numbered) on any
/// malformed line, unknown key, or missing required field.
Manifest parse_manifest(std::istream& is);
/// File variant; throws util::IoError if the file cannot be opened.
Manifest parse_manifest_file(const std::string& path);

/// Parse one sort-workload profile token (const:S | uniform:LO:HI |
/// sawtooth:PEAK:CYCLES | mworst:A:B:N:SCALE) outside a manifest — the
/// CLI's `mc --sort-profile` uses this. Throws util::ParseError.
ProfileSpec parse_sort_profile_token(const std::string& token);

/// Validate a sort/program token (adaptive|funnel|merge2|mm:N|fw:N).
/// Throws util::ParseError with `line_no` context on anything else.
void validate_program_token(const std::string& token, std::size_t line_no);

/// Canonical one-line rendering of everything that shapes a cell. Two
/// manifests measure the same campaign iff their fingerprints are equal.
std::string manifest_fingerprint(const Manifest& manifest);

/// FNV-1a hash of the fingerprint — the config_hash stamped into reports
/// and checkpoints.
std::uint64_t manifest_hash(const Manifest& manifest);

}  // namespace cadapt::campaign

#include "campaign/manifest.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>

#include "paging/policy.hpp"
#include "util/check.hpp"

namespace cadapt::campaign {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw util::ParseError(
      "manifest line " + std::to_string(line_no) + ": " + message, line_no);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= s.size()) {
    const auto pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> tokens_of(const std::string& value) {
  std::istringstream is(value);
  std::vector<std::string> out;
  std::string token;
  while (is >> token) out.push_back(token);
  return out;
}

std::uint64_t parse_u64(const std::string& s, std::size_t line_no,
                        const std::string& what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    fail(line_no, what + ": '" + s + "' is not an unsigned integer");
  }
  return v;
}

double parse_f64(const std::string& s, std::size_t line_no,
                 const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    fail(line_no, what + ": '" + s + "' is not a number");
  }
}

std::string format_double_token(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

AlgoSpec parse_algo(const std::string& token, std::size_t line_no) {
  const auto parts = split(token, ':');
  if (parts.size() != 3) {
    fail(line_no, "algo '" + token + "' must be a:b:c");
  }
  AlgoSpec spec;
  spec.params.a = parse_u64(parts[0], line_no, "algo a");
  spec.params.b = parse_u64(parts[1], line_no, "algo b");
  spec.params.c = parse_f64(parts[2], line_no, "algo c");
  try {
    spec.params.validate();
  } catch (const util::CheckError& e) {
    fail(line_no, "algo '" + token + "': " + e.what());
  }
  spec.token = parts[0] + ":" + parts[1] + ":" +
               format_double_token(spec.params.c);
  return spec;
}

void expect_args(const std::vector<std::string>& parts, std::size_t n,
                 std::size_t line_no, const std::string& what) {
  if (parts.size() != n + 1) {
    fail(line_no, what + " takes " + std::to_string(n) + " argument(s), got " +
                      std::to_string(parts.size() - 1));
  }
}

ProfileSpec parse_ratio_profile(const std::string& token, std::size_t line_no) {
  // An optional trailing @K caps the profile at k <= K; the raw token
  // (suffix included) stays the canonical spelling so the cap is part of
  // the fingerprint.
  std::string body = token;
  unsigned kmax = 0;
  if (const auto at = token.rfind('@'); at != std::string::npos) {
    const std::string cap = token.substr(at + 1);
    const std::uint64_t k = parse_u64(cap, line_no, "profile k cap");
    if (k == 0) fail(line_no, "profile k cap must be >= 1");
    kmax = static_cast<unsigned>(k);
    body = token.substr(0, at);
  }
  const auto parts = split(body, ':');
  ProfileSpec spec;
  spec.token = token;
  spec.kmax = kmax;
  const std::string& kind = parts[0];
  if (kind == "worst") {
    expect_args(parts, 0, line_no, "worst");
    spec.kind = ProfileKind::kWorst;
  } else if (kind == "shuffled") {
    expect_args(parts, 0, line_no, "shuffled");
    spec.kind = ProfileKind::kShuffled;
  } else if (kind == "shifted") {
    expect_args(parts, 0, line_no, "shifted");
    spec.kind = ProfileKind::kShifted;
  } else if (kind == "perturb") {
    expect_args(parts, 1, line_no, "perturb");
    spec.kind = ProfileKind::kPerturb;
    spec.farg = parse_f64(parts[1], line_no, "perturb t");
    if (spec.farg <= 0.0) fail(line_no, "perturb t must be > 0");
  } else if (kind == "order") {
    expect_args(parts, 0, line_no, "order");
    spec.kind = ProfileKind::kOrder;
  } else if (kind == "order-matched") {
    expect_args(parts, 0, line_no, "order-matched");
    spec.kind = ProfileKind::kOrderMatched;
  } else if (kind == "randscan") {
    expect_args(parts, 0, line_no, "randscan");
    spec.kind = ProfileKind::kRandScan;
  } else if (kind == "iid") {
    if (parts.size() < 2) fail(line_no, "iid profile needs a distribution");
    spec.kind = ProfileKind::kIid;
    spec.dist = parts[1];
    if (spec.dist == "geometric") {
      expect_args(parts, 2, line_no, "iid:geometric");
      spec.uargs = {parse_u64(parts[2], line_no, "geometric K")};
    } else if (spec.dist == "uniform-powers") {
      expect_args(parts, 3, line_no, "iid:uniform-powers");
      spec.uargs = {parse_u64(parts[2], line_no, "uniform-powers K0"),
                    parse_u64(parts[3], line_no, "uniform-powers K1")};
    } else if (spec.dist == "bimodal") {
      expect_args(parts, 4, line_no, "iid:bimodal");
      spec.uargs = {parse_u64(parts[2], line_no, "bimodal small"),
                    parse_u64(parts[3], line_no, "bimodal big")};
      spec.farg = parse_f64(parts[4], line_no, "bimodal p_big");
    } else if (spec.dist == "point") {
      expect_args(parts, 2, line_no, "iid:point");
      spec.uargs = {parse_u64(parts[2], line_no, "point size")};
    } else if (spec.dist == "uniform-range") {
      expect_args(parts, 3, line_no, "iid:uniform-range");
      spec.uargs = {parse_u64(parts[2], line_no, "uniform-range lo"),
                    parse_u64(parts[3], line_no, "uniform-range hi")};
    } else {
      fail(line_no, "unknown iid distribution '" + spec.dist + "'");
    }
  } else {
    fail(line_no, "unknown profile '" + token + "'");
  }
  return spec;
}

ProfileSpec parse_sort_profile(const std::string& token, std::size_t line_no) {
  const auto parts = split(token, ':');
  ProfileSpec spec;
  spec.token = token;
  const std::string& kind = parts[0];
  if (kind == "const") {
    expect_args(parts, 1, line_no, "const");
    spec.kind = ProfileKind::kConst;
    spec.uargs = {parse_u64(parts[1], line_no, "const size")};
  } else if (kind == "uniform") {
    expect_args(parts, 2, line_no, "uniform");
    spec.kind = ProfileKind::kUniform;
    spec.uargs = {parse_u64(parts[1], line_no, "uniform lo"),
                  parse_u64(parts[2], line_no, "uniform hi")};
  } else if (kind == "sawtooth") {
    expect_args(parts, 2, line_no, "sawtooth");
    spec.kind = ProfileKind::kSawtooth;
    spec.uargs = {parse_u64(parts[1], line_no, "sawtooth peak"),
                  parse_u64(parts[2], line_no, "sawtooth cycles")};
  } else if (kind == "mworst") {
    expect_args(parts, 4, line_no, "mworst");
    spec.kind = ProfileKind::kMWorst;
    spec.uargs = {parse_u64(parts[1], line_no, "mworst a"),
                  parse_u64(parts[2], line_no, "mworst b"),
                  parse_u64(parts[3], line_no, "mworst n"),
                  parse_u64(parts[4], line_no, "mworst scale")};
  } else {
    fail(line_no, "unknown sort profile '" + token + "'");
  }
  return spec;
}

std::vector<unsigned> parse_k_list(const std::string& value,
                                   std::size_t line_no) {
  std::vector<unsigned> ks;
  for (const std::string& token : tokens_of(value)) {
    const auto dots = token.find("..");
    if (dots != std::string::npos) {
      const std::uint64_t lo =
          parse_u64(token.substr(0, dots), line_no, "k range low");
      const std::uint64_t hi =
          parse_u64(token.substr(dots + 2), line_no, "k range high");
      if (lo > hi) fail(line_no, "k range '" + token + "' is reversed");
      for (std::uint64_t k = lo; k <= hi; ++k)
        ks.push_back(static_cast<unsigned>(k));
    } else {
      ks.push_back(static_cast<unsigned>(parse_u64(token, line_no, "k")));
    }
  }
  return ks;
}

TiersSpec parse_tiers(const std::string& token, std::size_t line_no) {
  const auto parts = split(token, ':');
  if (parts.size() != 3 && parts.size() != 5) {
    fail(line_no, "tiers '" + token +
                      "' must be T2CAP:HITCOST:MISSCOST[:NUM:DEN]");
  }
  TiersSpec spec;
  spec.set = true;
  spec.tier2_blocks = parse_u64(parts[0], line_no, "tiers t2 capacity");
  spec.tier2_hit_cost = parse_u64(parts[1], line_no, "tiers hit cost");
  spec.tier2_miss_cost = parse_u64(parts[2], line_no, "tiers miss cost");
  if (spec.tier2_hit_cost == 0) fail(line_no, "tiers hit cost must be >= 1");
  if (spec.tier2_miss_cost < spec.tier2_hit_cost) {
    fail(line_no, "tiers miss cost must be >= the hit cost");
  }
  if (parts.size() == 5) {
    spec.tier1_num = parse_u64(parts[3], line_no, "tiers share num");
    spec.tier1_den = parse_u64(parts[4], line_no, "tiers share den");
    if (spec.tier1_num == 0) fail(line_no, "tiers share num must be >= 1");
    if (spec.tier1_num > spec.tier1_den) {
      fail(line_no, "tiers share must be <= 1 (num <= den)");
    }
  }
  if (spec.tier2_blocks == 0 && spec.tier1_num == spec.tier1_den) {
    fail(line_no, "tiers '" + token +
                      "' is a no-op: give tier 2 capacity or a share < 1");
  }
  return spec;
}

std::string parse_policy(const std::string& token, std::size_t line_no) {
  try {
    return paging::parse_policy_token(token).token();
  } catch (const util::ParseError& e) {
    fail(line_no, e.what());
  }
}

}  // namespace

ProfileSpec parse_profile_token(const std::string& token, Workload workload) {
  if (workload == Workload::kSort) return parse_sort_profile(token, 0);
  ProfileSpec spec = parse_ratio_profile(token, 0);
  if (spec.kmax != 0) {
    fail(0, "profile '" + token + "': an @K cap only applies in a manifest");
  }
  return spec;
}

std::string TiersSpec::token() const {
  std::ostringstream os;
  os << tier2_blocks << ":" << tier2_hit_cost << ":" << tier2_miss_cost;
  if (tier1_num != tier1_den) os << ":" << tier1_num << ":" << tier1_den;
  return os.str();
}

TiersSpec parse_tiers_token(const std::string& token) {
  return parse_tiers(token, 0);
}

void validate_program_token(const std::string& token, std::size_t line_no) {
  if (token == "adaptive" || token == "funnel" || token == "merge2") return;
  const auto parts = split(token, ':');
  if (parts.size() == 2 && (parts[0] == "mm" || parts[0] == "fw")) {
    const std::uint64_t n = parse_u64(parts[1], line_no, parts[0] + " size");
    if (n < 4 || (n & (n - 1)) != 0) {
      fail(line_no,
           parts[0] + " size must be a power of two >= 4, got '" + parts[1] +
               "'");
    }
    return;
  }
  fail(line_no, "unknown program '" + token +
                    "' (expected adaptive, funnel, merge2, mm:N, or fw:N)");
}

Manifest parse_manifest(std::istream& is) {
  Manifest m;
  bool saw_name = false;
  bool saw_workload = false;
  // Raw values are collected first: `workload` may appear after `profiles`
  // and profile grammar depends on it.
  std::vector<std::string> profile_tokens;
  std::size_t profiles_line = 0;
  std::size_t placement_line = 0;
  // key -> the line that first set it. A repeated key is refused, not
  // last-one-wins: two manifests differing only in a shadowed line would
  // parse (and hash) identically while READING differently — ambiguity a
  // submitted campaign must never carry (docs/SWEEPS.md).
  std::map<std::string, std::size_t> seen_keys;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      if (!tokens_of(line).empty()) fail(line_no, "expected 'key = value'");
      continue;
    }
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    const auto key_tokens = tokens_of(key);
    if (key_tokens.size() != 1) fail(line_no, "expected a single key");
    key = key_tokens.front();
    if (const auto [it, fresh] = seen_keys.emplace(key, line_no); !fresh) {
      fail(line_no, "duplicate key '" + key + "' (first set at line " +
                        std::to_string(it->second) +
                        ") — list every value on one line");
    }

    if (key == "name") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "name must be a single token");
      m.name = toks.front();
      saw_name = true;
    } else if (key == "workload") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1 || (toks[0] != "ratio" && toks[0] != "sort")) {
        fail(line_no, "workload must be ratio or sort");
      }
      m.workload = toks[0] == "sort" ? Workload::kSort : Workload::kRatio;
      saw_workload = true;
    } else if (key == "algos") {
      for (const std::string& token : tokens_of(value))
        m.algos.push_back(parse_algo(token, line_no));
    } else if (key == "profiles") {
      profile_tokens = tokens_of(value);
      profiles_line = line_no;
    } else if (key == "k") {
      m.ks = parse_k_list(value, line_no);
    } else if (key == "trials") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "trials must be a single integer");
      m.trials = parse_u64(toks[0], line_no, "trials");
      if (m.trials == 0) fail(line_no, "trials must be >= 1");
    } else if (key == "seed") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "seed must be a single integer");
      m.seed = parse_u64(toks[0], line_no, "seed");
    } else if (key == "semantics") {
      const auto toks = tokens_of(value);
      if (toks.size() == 1 && toks[0] == "budgeted") {
        m.semantics = engine::BoxSemantics::kBudgeted;
      } else if (toks.size() == 1 && toks[0] == "optimistic") {
        m.semantics = engine::BoxSemantics::kOptimistic;
      } else {
        fail(line_no, "semantics must be optimistic or budgeted");
      }
    } else if (key == "unit_progress") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1 || (toks[0] != "0" && toks[0] != "1")) {
        fail(line_no, "unit_progress must be 0 or 1");
      }
      m.unit_progress = toks[0] == "1";
    } else if (key == "placement") {
      const auto toks = tokens_of(value);
      if (toks.size() == 1 && toks[0] == "end") {
        m.placement = engine::ScanPlacement::kEnd;
      } else if (toks.size() == 1 && toks[0] == "interleaved") {
        m.placement = engine::ScanPlacement::kInterleaved;
      } else {
        fail(line_no, "placement must be end or interleaved");
      }
      placement_line = line_no;
    } else if (key == "max_boxes") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "max_boxes must be a single integer");
      m.max_boxes = parse_u64(toks[0], line_no, "max_boxes");
      if (m.max_boxes == 0) fail(line_no, "max_boxes must be >= 1");
    } else if (key == "sorts") {
      for (const std::string& token : tokens_of(value)) {
        validate_program_token(token, line_no);
        m.sorts.push_back(token);
      }
    } else if (key == "policies") {
      for (const std::string& token : tokens_of(value)) {
        m.policies.push_back(parse_policy(token, line_no));
      }
    } else if (key == "tiers") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "tiers must be a single token");
      m.tiers = parse_tiers(toks[0], line_no);
    } else if (key == "trace_replay") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1 || (toks[0] != "0" && toks[0] != "1")) {
        fail(line_no, "trace_replay must be 0 or 1");
      }
      m.trace_replay = toks[0] == "1";
    } else if (key == "keys") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "keys must be a single integer");
      m.keys = parse_u64(toks[0], line_no, "keys");
      if (m.keys < 2) fail(line_no, "keys must be >= 2");
    } else if (key == "workers") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "workers must be a single integer");
      m.workers = parse_u64(toks[0], line_no, "workers");
      if (m.workers == 0) fail(line_no, "workers must be >= 1");
    } else if (key == "block") {
      const auto toks = tokens_of(value);
      if (toks.size() != 1) fail(line_no, "block must be a single integer");
      m.block = parse_u64(toks[0], line_no, "block");
      if (m.block == 0) fail(line_no, "block must be >= 1");
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  (void)saw_workload;

  if (!saw_name) throw util::ParseError("manifest has no 'name' line");
  for (const std::string& token : profile_tokens) {
    m.profiles.push_back(m.workload == Workload::kSort
                             ? parse_sort_profile(token, profiles_line)
                             : parse_ratio_profile(token, profiles_line));
  }
  if (m.profiles.empty()) throw util::ParseError("manifest has no profiles");
  if (m.workload == Workload::kRatio) {
    if (m.algos.empty()) throw util::ParseError("manifest has no algos");
    if (m.ks.empty()) throw util::ParseError("manifest has no k values");
    if (!m.sorts.empty()) {
      throw util::ParseError("'sorts' requires workload = sort");
    }
    if (m.trace_replay) {
      throw util::ParseError("'trace_replay' requires workload = sort");
    }
    if (!m.policies.empty()) {
      throw util::ParseError("'policies' requires workload = sort");
    }
    if (m.tiers.set) {
      throw util::ParseError("'tiers' requires workload = sort");
    }
    if (m.placement != engine::ScanPlacement::kEnd) {
      // These runners place their scans themselves (trailing or
      // adversary-matched); an interleaved request would be ignored.
      for (const ProfileSpec& p : m.profiles) {
        if (p.kind == ProfileKind::kOrder ||
            p.kind == ProfileKind::kOrderMatched ||
            p.kind == ProfileKind::kRandScan) {
          fail(placement_line, "placement = interleaved cannot apply to "
                               "profile '" + p.token +
                                   "' (it fixes its own scan placement)");
        }
      }
    }
  } else {
    if (m.sorts.empty()) throw util::ParseError("manifest has no sorts");
    if (placement_line != 0) {
      fail(placement_line, "'placement' requires workload = ratio");
    }
    if (!m.algos.empty() || !m.ks.empty()) {
      throw util::ParseError("'algos'/'k' require workload = ratio");
    }
  }
  return m;
}

Manifest parse_manifest_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    throw util::IoError("cannot open manifest '" + path + "' for reading");
  }
  return parse_manifest(is);
}

std::string manifest_fingerprint(const Manifest& m) {
  std::ostringstream os;
  os << "v1 name=" << m.name
     << " workload=" << (m.workload == Workload::kSort ? "sort" : "ratio");
  os << " algos=";
  for (const AlgoSpec& a : m.algos) os << a.token << ",";
  os << " profiles=";
  for (const ProfileSpec& p : m.profiles) os << p.token << ",";
  os << " k=";
  for (const unsigned k : m.ks) os << k << ",";
  os << " trials=" << m.trials << " seed=" << m.seed << " sem="
     << (m.semantics == engine::BoxSemantics::kBudgeted ? "budgeted"
                                                        : "optimistic")
     << " unit=" << (m.unit_progress ? 1 : 0) << " max_boxes=" << m.max_boxes;
  // Only-when-set, like the sort-side keys below: trailing scans are the
  // historical default and keep the fingerprint byte-for-byte.
  if (m.placement == engine::ScanPlacement::kInterleaved) {
    os << " placement=interleaved";
  }
  if (m.workload == Workload::kSort) {
    os << " sorts=";
    for (const std::string& s : m.sorts) os << s << ",";
    os << " keys=" << m.keys << " block=" << m.block;
    // Only-when-set: campaigns without trace replay, a policy axis, or
    // tiers keep their historical fingerprint (and thus config_hash)
    // byte-for-byte.
    if (m.trace_replay) os << " replay=1";
    if (!m.policies.empty()) {
      os << " policies=";
      for (const std::string& p : m.policies) os << p << ",";
    }
    if (m.tiers.set) os << " tiers=" << m.tiers.token();
  }
  // Only-when-set (>= 2): workers never changes any measured value, but
  // a parallel campaign still declares itself; workers = 1 is the
  // historical sequential loop and keeps the fingerprint byte-for-byte.
  if (m.workers >= 2) os << " workers=" << m.workers;
  return os.str();
}

std::uint64_t manifest_hash(const Manifest& m) {
  // FNV-1a over the canonical fingerprint.
  const std::string fp = manifest_fingerprint(m);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : fp) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace cadapt::campaign

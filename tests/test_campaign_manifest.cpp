// campaign/manifest + campaign/plan: the declarative front half of the
// sweep subsystem. Parsing must be strict (typos rejected, errors carry
// line numbers), fingerprints must be canonical (same campaign ⇒ same
// config_hash regardless of formatting), and plan expansion must be a
// pure deterministic function of the manifest — cell indices are the
// address space for checkpoints, shards, and reports.
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "util/check.hpp"

namespace {

using namespace cadapt;
using campaign::Manifest;
using campaign::Plan;
using campaign::ProfileKind;
using campaign::Workload;

Manifest parse(const std::string& text) {
  std::istringstream is(text);
  return campaign::parse_manifest(is);
}

TEST(Manifest, ParsesRatioCampaign) {
  const Manifest m = parse(
      "# comment\n"
      "name = demo\n"
      "algos = 8:4:1 7:4:1\n"
      "profiles = worst shuffled perturb:4 iid:geometric:6\n"
      "k = 2..4\n"
      "trials = 16\n"
      "seed = 7\n");
  EXPECT_EQ(m.name, "demo");
  EXPECT_EQ(m.workload, Workload::kRatio);
  ASSERT_EQ(m.algos.size(), 2u);
  EXPECT_EQ(m.algos[0].token, "8:4:1");
  EXPECT_EQ(m.algos[0].params.a, 8u);
  EXPECT_EQ(m.algos[0].params.b, 4u);
  ASSERT_EQ(m.profiles.size(), 4u);
  EXPECT_EQ(m.profiles[0].kind, ProfileKind::kWorst);
  EXPECT_EQ(m.profiles[2].kind, ProfileKind::kPerturb);
  EXPECT_DOUBLE_EQ(m.profiles[2].farg, 4.0);
  EXPECT_EQ(m.profiles[3].kind, ProfileKind::kIid);
  EXPECT_EQ(m.profiles[3].dist, "geometric");
  EXPECT_EQ(m.ks, (std::vector<unsigned>{2, 3, 4}));
  EXPECT_EQ(m.trials, 16u);
  EXPECT_EQ(m.seed, 7u);
}

TEST(Manifest, ParsesSortCampaign) {
  const Manifest m = parse(
      "name = s\n"
      "workload = sort\n"
      "sorts = adaptive funnel merge2\n"
      "profiles = const:64 mworst:2:2:512:2\n"
      "keys = 4096\n"
      "block = 8\n"
      "trials = 4\n");
  EXPECT_EQ(m.workload, Workload::kSort);
  EXPECT_EQ(m.sorts, (std::vector<std::string>{"adaptive", "funnel", "merge2"}));
  ASSERT_EQ(m.profiles.size(), 2u);
  EXPECT_EQ(m.profiles[0].kind, ProfileKind::kConst);
  EXPECT_EQ(m.profiles[1].kind, ProfileKind::kMWorst);
  EXPECT_EQ(m.keys, 4096u);
  EXPECT_EQ(m.block, 8u);
}

TEST(Manifest, ExplicitKListAndRange) {
  const Manifest ranged = parse(
      "name = x\nalgos = 4:2:1\nprofiles = worst\nk = 3..5\n");
  EXPECT_EQ(ranged.ks, (std::vector<unsigned>{3, 4, 5}));
  const Manifest listed = parse(
      "name = x\nalgos = 4:2:1\nprofiles = worst\nk = 2 5 9\n");
  EXPECT_EQ(listed.ks, (std::vector<unsigned>{2, 5, 9}));
}

TEST(Manifest, RejectsUnknownKeyWithLineNumber) {
  try {
    parse("name = x\nalgos = 4:2:1\nprofiles = worst\nk = 2\nalgoz = 1:2:3\n");
    FAIL() << "unknown key accepted";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos)
        << "error should name line 5: " << e.what();
  }
}

TEST(Manifest, RejectsDuplicateKeyNamingBothLines) {
  // A repeated key is a silent last-one-wins trap (the camouflaged-typo
  // cousin of algoz=): refuse it, and name BOTH lines so the fix is
  // obvious. Multi-value axes are one line by design (`k = 1 2 3`).
  try {
    parse("name = x\nalgos = 4:2:1\nprofiles = worst\nk = 2\nk = 3\n");
    FAIL() << "duplicate key accepted";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'k'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;  // first
    EXPECT_EQ(e.line(), 5u);                                    // second
  }
  EXPECT_THROW(parse("name = x\nname = y\nalgos = 4:2:1\n"
                     "profiles = worst\nk = 2\n"),
               util::ParseError);
}

TEST(Manifest, RejectsMalformedInput) {
  // missing required name
  EXPECT_THROW(parse("algos = 4:2:1\nprofiles = worst\nk = 2\n"),
               util::ParseError);
  // bad algo shape
  EXPECT_THROW(parse("name = x\nalgos = 4:0:1\nprofiles = worst\nk = 2\n"),
               util::ParseError);
  // unknown profile token
  EXPECT_THROW(parse("name = x\nalgos = 4:2:1\nprofiles = bogus\nk = 2\n"),
               util::ParseError);
  // line without '='
  EXPECT_THROW(parse("name = x\nalgos 4:2:1\nprofiles = worst\nk = 2\n"),
               util::ParseError);
  // ratio manifest with no k
  EXPECT_THROW(parse("name = x\nalgos = 4:2:1\nprofiles = worst\n"),
               util::ParseError);
  // sort manifest with a ratio profile
  EXPECT_THROW(parse("name = x\nworkload = sort\nsorts = adaptive\n"
                     "profiles = worst\n"),
               util::ParseError);
}

TEST(Manifest, ParsesProfileKCapSuffix) {
  const Manifest m = parse(
      "name = x\nalgos = 8:4:1\n"
      "profiles = worst shuffled@7 iid:point:16 iid:geometric:6@4\nk = 1..9\n");
  ASSERT_EQ(m.profiles.size(), 4u);
  EXPECT_EQ(m.profiles[0].kmax, 0u);  // uncapped
  EXPECT_EQ(m.profiles[1].kind, ProfileKind::kShuffled);
  EXPECT_EQ(m.profiles[1].kmax, 7u);
  EXPECT_EQ(m.profiles[1].token, "shuffled@7");  // raw token kept verbatim
  EXPECT_EQ(m.profiles[2].kmax, 0u);
  EXPECT_EQ(m.profiles[3].kind, ProfileKind::kIid);
  EXPECT_EQ(m.profiles[3].dist, "geometric");
  EXPECT_EQ(m.profiles[3].kmax, 4u);
}

TEST(Manifest, RejectsBadKCapSuffix) {
  // zero cap
  EXPECT_THROW(
      parse("name = x\nalgos = 4:2:1\nprofiles = shuffled@0\nk = 2\n"),
      util::ParseError);
  // non-numeric cap
  EXPECT_THROW(
      parse("name = x\nalgos = 4:2:1\nprofiles = shuffled@lots\nk = 2\n"),
      util::ParseError);
}

TEST(Manifest, KCapEntersTheFingerprint) {
  // Capping a profile changes which cells exist, so it must be a
  // different campaign — the raw token (with the @cap) is fingerprinted.
  const Manifest uncapped = parse(
      "name = x\nalgos = 8:4:1\nprofiles = shuffled\nk = 1..9\n");
  const Manifest capped = parse(
      "name = x\nalgos = 8:4:1\nprofiles = shuffled@7\nk = 1..9\n");
  EXPECT_NE(campaign::manifest_hash(uncapped), campaign::manifest_hash(capped));
}

TEST(Plan, KCapSkipsCellsAboveTheCapOnly) {
  const Manifest m = parse(
      "name = x\nalgos = 8:4:1\nprofiles = worst shuffled@2\nk = 1..4\n"
      "trials = 4\n");
  const Plan plan = campaign::expand_plan(m);
  // worst keeps all four k; shuffled@2 keeps k=1,2 → 6 cells.
  ASSERT_EQ(plan.cells.size(), 6u);
  for (const campaign::Cell& cell : plan.cells) {
    if (cell.profile.kmax != 0) EXPECT_LE(cell.k, cell.profile.kmax);
  }
  // Indices stay dense and stable (they address checkpoints/shards).
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(plan.cells[i].index, i);
  }
}

TEST(Manifest, FingerprintIgnoresFormattingButNotContent) {
  const Manifest a = parse(
      "name = demo\nalgos = 8:4:1\nprofiles = worst shuffled\nk = 2..3\n"
      "trials = 16\nseed = 7\n");
  const Manifest b = parse(
      "# reformatted, same campaign\n"
      "seed=7\n"
      "trials =  16\n"
      "k = 2 3\n"
      "profiles = worst shuffled\n"
      "algos = 8:4:1\n"
      "name = demo\n");
  EXPECT_EQ(campaign::manifest_fingerprint(a), campaign::manifest_fingerprint(b));
  EXPECT_EQ(campaign::manifest_hash(a), campaign::manifest_hash(b));

  Manifest c = a;
  c.seed = 8;
  EXPECT_NE(campaign::manifest_hash(a), campaign::manifest_hash(c));
  Manifest d = a;
  d.trials = 17;
  EXPECT_NE(campaign::manifest_hash(a), campaign::manifest_hash(d));
}

TEST(Plan, ExpandsAlgoMajorWithStableIndicesAndSeeds) {
  const Manifest m = parse(
      "name = demo\nalgos = 8:4:1 7:4:1\nprofiles = worst shuffled\n"
      "k = 2..3\ntrials = 16\nseed = 100\n");
  const Plan plan = campaign::expand_plan(m);
  ASSERT_EQ(plan.cells.size(), 2u * 2u * 2u);
  EXPECT_EQ(plan.config_hash, campaign::manifest_hash(m));
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(plan.cells[i].index, i);
  }
  // algo-major, then profile, then k
  EXPECT_EQ(plan.cells[0].algo.token, "8:4:1");
  EXPECT_EQ(plan.cells[0].profile.token, "worst");
  EXPECT_EQ(plan.cells[0].k, 2u);
  EXPECT_EQ(plan.cells[1].k, 3u);
  EXPECT_EQ(plan.cells[2].profile.token, "shuffled");
  EXPECT_EQ(plan.cells[4].algo.token, "7:4:1");
  // n = b^k; ratio seed = manifest.seed + k
  EXPECT_EQ(plan.cells[0].n, 16u);
  EXPECT_EQ(plan.cells[1].n, 64u);
  EXPECT_EQ(plan.cells[0].seed, 102u);
  EXPECT_EQ(plan.cells[1].seed, 103u);
  // deterministic worst cells force trials = 1; stochastic keep 16
  EXPECT_EQ(plan.cells[0].trials, 1u);
  EXPECT_EQ(plan.cells[2].trials, 16u);
}

TEST(Plan, ExpandsSortCellsSeededByIndex) {
  const Manifest m = parse(
      "name = s\nworkload = sort\nsorts = adaptive funnel\n"
      "profiles = const:64 uniform:4:128\nkeys = 4096\ntrials = 4\nseed = 50\n");
  const Plan plan = campaign::expand_plan(m);
  ASSERT_EQ(plan.cells.size(), 4u);
  EXPECT_EQ(plan.cells[0].sort, "adaptive");
  EXPECT_EQ(plan.cells[1].profile.token, "uniform:4:128");
  EXPECT_EQ(plan.cells[2].sort, "funnel");
  for (const auto& cell : plan.cells) {
    EXPECT_TRUE(cell.algo.token.empty());
    EXPECT_EQ(cell.n, 4096u);
    EXPECT_EQ(cell.trials, 4u);
    EXPECT_EQ(cell.seed, 50u + cell.index);
  }
}

TEST(Manifest, ParsesPoliciesAndTiers) {
  const Manifest m = parse(
      "name = p\nworkload = sort\nsorts = funnel\nprofiles = const:64\n"
      "policies = lru clock arc car assoc:4\n"
      "tiers = 256:1:4:1:2\n"
      "keys = 2048\ntrials = 4\n");
  EXPECT_EQ(m.policies, (std::vector<std::string>{"lru", "clock", "arc",
                                                  "car", "assoc:4"}));
  EXPECT_TRUE(m.tiers.set);
  EXPECT_EQ(m.tiers.tier2_blocks, 256u);
  EXPECT_EQ(m.tiers.tier2_hit_cost, 1u);
  EXPECT_EQ(m.tiers.tier2_miss_cost, 4u);
  EXPECT_EQ(m.tiers.tier1_num, 1u);
  EXPECT_EQ(m.tiers.tier1_den, 2u);
  EXPECT_EQ(m.tiers.token(), "256:1:4:1:2");

  // The three-field form leaves tier 1 at full share.
  const Manifest short_form = parse(
      "name = p\nworkload = sort\nsorts = funnel\nprofiles = const:64\n"
      "tiers = 128:2:5\nkeys = 2048\n");
  EXPECT_EQ(short_form.tiers.tier1_num, short_form.tiers.tier1_den);
  EXPECT_EQ(short_form.tiers.token(), "128:2:5");
}

TEST(Manifest, RejectsBadPoliciesAndTiers) {
  const std::string head =
      "name = p\nworkload = sort\nsorts = funnel\nprofiles = const:64\n";
  // unknown policy token (line number carried)
  try {
    parse(head + "policies = lru banana\n");
    FAIL() << "bad policy accepted";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos) << e.what();
  }
  // assoc without ways / zero ways
  EXPECT_THROW(parse(head + "policies = assoc\n"), util::ParseError);
  EXPECT_THROW(parse(head + "policies = assoc:0\n"), util::ParseError);
  // malformed tiers shapes
  EXPECT_THROW(parse(head + "tiers = 256\n"), util::ParseError);
  EXPECT_THROW(parse(head + "tiers = 256:1\n"), util::ParseError);
  EXPECT_THROW(parse(head + "tiers = 256:1:4:1\n"), util::ParseError);
  EXPECT_THROW(parse(head + "tiers = 256:0:4\n"), util::ParseError);
  EXPECT_THROW(parse(head + "tiers = 256:5:2\n"), util::ParseError);  // miss<hit
  EXPECT_THROW(parse(head + "tiers = 256:1:4:3:2\n"), util::ParseError);
  // a no-op tiers spec (no tier 2, full share) is rejected, not silent
  EXPECT_THROW(parse(head + "tiers = 0:1:4:1:1\n"), util::ParseError);
  // both keys require the sort workload
  EXPECT_THROW(parse("name = x\nalgos = 4:2:1\nprofiles = worst\nk = 2\n"
                     "policies = lru\n"),
               util::ParseError);
  EXPECT_THROW(parse("name = x\nalgos = 4:2:1\nprofiles = worst\nk = 2\n"
                     "tiers = 256:1:4\n"),
               util::ParseError);
}

TEST(Manifest, PoliciesAndTiersEnterTheFingerprintOnlyWhenSet) {
  const std::string head =
      "name = p\nworkload = sort\nsorts = funnel\nprofiles = const:64\n"
      "keys = 2048\n";
  const Manifest plain = parse(head);
  // A manifest without the new keys fingerprints exactly as before the
  // policy axis existed: historical config_hashes stay valid.
  EXPECT_EQ(campaign::manifest_fingerprint(plain).find("policies"),
            std::string::npos);
  EXPECT_EQ(campaign::manifest_fingerprint(plain).find("tiers"),
            std::string::npos);

  const Manifest with_policy = parse(head + "policies = clock\n");
  const Manifest with_tiers = parse(head + "tiers = 256:1:4\n");
  EXPECT_NE(campaign::manifest_hash(plain), campaign::manifest_hash(with_policy));
  EXPECT_NE(campaign::manifest_hash(plain), campaign::manifest_hash(with_tiers));
  EXPECT_NE(campaign::manifest_hash(with_policy),
            campaign::manifest_hash(with_tiers));

  // Canonicality: the policy list is order-sensitive (it orders cells)
  // but whitespace-insensitive like every other key.
  const Manifest a = parse(head + "policies = clock arc\n");
  const Manifest b = parse(head + "policies =   clock   arc\n");
  const Manifest c = parse(head + "policies = arc clock\n");
  EXPECT_EQ(campaign::manifest_fingerprint(a), campaign::manifest_fingerprint(b));
  EXPECT_NE(campaign::manifest_hash(a), campaign::manifest_hash(c));
}

TEST(Plan, ExpandsPolicyAxisInnermostWithStableSeeds) {
  const Manifest m = parse(
      "name = p\nworkload = sort\nsorts = funnel merge2\n"
      "profiles = const:64\npolicies = lru clock\nkeys = 1024\n"
      "trials = 3\nseed = 20\n");
  const Plan plan = campaign::expand_plan(m);
  ASSERT_EQ(plan.cells.size(), 4u);  // 2 sorts x 1 profile x 2 policies
  EXPECT_EQ(plan.cells[0].sort, "funnel");
  EXPECT_EQ(plan.cells[0].policy, "lru");
  EXPECT_EQ(plan.cells[1].policy, "clock");
  EXPECT_EQ(plan.cells[2].sort, "merge2");
  EXPECT_EQ(plan.cells[2].policy, "lru");
  for (const campaign::Cell& cell : plan.cells) {
    EXPECT_EQ(cell.seed, 20u + cell.index);
  }
  // No policies key -> one cell per (sort, profile) with no policy tag,
  // exactly the historical grid.
  const Manifest plain = parse(
      "name = p\nworkload = sort\nsorts = funnel merge2\n"
      "profiles = const:64\nkeys = 1024\ntrials = 3\n");
  const Plan plain_plan = campaign::expand_plan(plain);
  ASSERT_EQ(plain_plan.cells.size(), 2u);
  for (const campaign::Cell& cell : plain_plan.cells) {
    EXPECT_TRUE(cell.policy.empty());
  }
}

TEST(Plan, ShardsRoundRobinAndCoverTheGrid) {
  const Manifest m = parse(
      "name = demo\nalgos = 8:4:1\nprofiles = worst shuffled shifted\n"
      "k = 1..5\ntrials = 2\n");
  const Plan plan = campaign::expand_plan(m);
  ASSERT_EQ(plan.cells.size(), 15u);

  std::vector<bool> seen(plan.cells.size(), false);
  for (std::uint64_t s = 0; s < 4; ++s) {
    for (const std::size_t i : campaign::shard_cells(plan, 4, s)) {
      EXPECT_EQ(i % 4, s);  // round-robin ownership
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (const bool b : seen) EXPECT_TRUE(b);

  const auto all = campaign::shard_cells(plan, 1, 0);
  EXPECT_EQ(all.size(), plan.cells.size());

  EXPECT_THROW(campaign::shard_cells(plan, 0, 0), util::UsageError);
  EXPECT_THROW(campaign::shard_cells(plan, 2, 2), util::UsageError);
}

TEST(Manifest, PlacementKeyParsesAndFingerprintsOnlyWhenInterleaved) {
  const std::string head =
      "name = p\nalgos = 8:4:1\nprofiles = worst shuffled\nk = 2..4\n";
  const Manifest plain = parse(head);
  const Manifest end = parse(head + "placement = end\n");
  const Manifest interleaved = parse(head + "placement = interleaved\n");
  EXPECT_EQ(plain.placement, engine::ScanPlacement::kEnd);
  EXPECT_EQ(end.placement, engine::ScanPlacement::kEnd);
  EXPECT_EQ(interleaved.placement, engine::ScanPlacement::kInterleaved);
  // An explicit default is the historical campaign, byte for byte.
  EXPECT_EQ(campaign::manifest_fingerprint(end),
            campaign::manifest_fingerprint(plain));
  EXPECT_EQ(campaign::manifest_hash(end), campaign::manifest_hash(plain));
  EXPECT_NE(campaign::manifest_hash(interleaved),
            campaign::manifest_hash(plain));
  EXPECT_NE(campaign::manifest_fingerprint(interleaved).find(
                "placement=interleaved"),
            std::string::npos);
}

TEST(Manifest, RejectsPlacementItCannotApplyWithLineNumber) {
  const auto expect_line = [](const std::string& text, std::size_t line) {
    try {
      parse(text);
      FAIL() << "accepted: " << text;
    } catch (const util::ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  // Not a placement token (the CLI's `adversary` is runner-owned).
  expect_line("name = x\nalgos = 8:4:1\nprofiles = worst\nk = 2\n"
              "placement = adversary\n",
              5);
  // Sort campaigns have no scans to place.
  expect_line("name = x\nworkload = sort\nsorts = funnel\n"
              "placement = end\nprofiles = const:64\n",
              4);
  // These runners fix their own placement; interleaved would be ignored.
  for (const std::string profile : {"order", "order-matched", "randscan"}) {
    expect_line("name = x\nalgos = 8:4:1\nplacement = interleaved\n"
                "profiles = worst " +
                    profile + "\nk = 2\n",
                3);
  }
  // ...while the default placement composes with them.
  EXPECT_NO_THROW(parse("name = x\nalgos = 8:4:1\nplacement = end\n"
                        "profiles = order order-matched randscan\nk = 2\n"));
}

// Every committed manifest parses, expands, is named after its file, and
// names a distinct campaign; the pre-existing ones keep the config_hash
// their committed reports and baselines carry.
TEST(Manifest, CommittedCorpusParsesWithDistinctHashes) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"chaos_gate", 4280410543812829791ull},
      {"e16_adaptive_vs_oblivious", 10889024280716822561ull},
      {"e2_log_gap", 3254406551395189439ull},
      {"e3_smoothing", 6757225506082015208ull},
      {"e4_stopping_time", 16540306616988717449ull},
      {"paging_gate", 1008001768007777027ull},
      {"parallel_gate", 18074376612564946843ull},
      {"perf_gate", 17868431802477748704ull},
      {"policy_gate", 11422844975868984291ull},
  };
  std::map<std::uint64_t, std::string> by_hash;
  std::size_t pinned_seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CADAPT_MANIFEST_DIR)) {
    if (entry.path().extension() != ".manifest") continue;
    const std::string stem = entry.path().stem().string();
    SCOPED_TRACE(stem);
    const Manifest m = campaign::parse_manifest_file(entry.path().string());
    EXPECT_EQ(m.name, stem);
    const Plan plan = campaign::expand_plan(m);
    EXPECT_FALSE(plan.cells.empty());
    const auto [it, fresh] = by_hash.emplace(plan.config_hash, stem);
    EXPECT_TRUE(fresh) << "config_hash shared with " << it->second;
    if (const auto pin = pinned.find(stem); pin != pinned.end()) {
      EXPECT_EQ(plan.config_hash, pin->second);
      ++pinned_seen;
    }
  }
  EXPECT_EQ(pinned_seen, pinned.size());
  EXPECT_GT(by_hash.size(), pinned.size());
}

}  // namespace

// Differential suite for the replacement-policy zoo (docs/PAGING.md):
// every production policy (CLOCK, ARC, CAR, set-associative LRU) is
// held to its deliberately naive oracle simulator
// (paging/reference_policies.hpp) access for access — identical hit
// flags, victims, sizes, membership, and Stats across randomized
// access/resize/clear schedules — plus known-answer tests pinning the
// behaviors that make each policy itself (second chance, scan
// resistance), machine-level identity for the two-tier
// policy-parameterized CaMachine against an inline naive machine, and
// cell-level bit identity through the campaign runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/sweep.hpp"
#include "engine/montecarlo.hpp"
#include "paging/arc_cache.hpp"
#include "paging/assoc_cache.hpp"
#include "paging/car_cache.hpp"
#include "paging/ca_machine.hpp"
#include "paging/clock_cache.hpp"
#include "paging/dam.hpp"
#include "paging/lru_cache.hpp"
#include "paging/policy.hpp"
#include "paging/reference_policies.hpp"
#include "paging_test_util.hpp"
#include "profile/box_source.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cadapt {
namespace {

using paging::ArcCache;
using paging::BlockId;
using paging::CaConfig;
using paging::CachePolicy;
using paging::CaMachine;
using paging::CarCache;
using paging::ClockCache;
using paging::LruCache;
using paging::PolicyKind;
using paging::PolicySpec;

PolicySpec spec_of(const std::string& token) {
  return paging::parse_policy_token(token);
}

// Every policy the zoo exposes, including two associativities (assoc:1
// is direct-mapped, the most adversarial geometry).
const std::vector<std::string>& all_policy_tokens() {
  static const std::vector<std::string> tokens = {"lru",     "clock",
                                                  "arc",     "car",
                                                  "assoc:1", "assoc:3"};
  return tokens;
}

// ---- Token parsing and config validation ----

TEST(PolicySpec, ParsesAndRendersCanonicalTokens) {
  EXPECT_EQ(spec_of("lru").kind, PolicyKind::kLru);
  EXPECT_TRUE(spec_of("lru").is_lru());
  EXPECT_EQ(spec_of("clock").kind, PolicyKind::kClock);
  EXPECT_EQ(spec_of("arc").kind, PolicyKind::kArc);
  EXPECT_EQ(spec_of("car").kind, PolicyKind::kCar);
  const PolicySpec assoc = spec_of("assoc:4");
  EXPECT_EQ(assoc.kind, PolicyKind::kLruAssoc);
  EXPECT_EQ(assoc.ways, 4u);
  for (const std::string& token : all_policy_tokens()) {
    EXPECT_EQ(spec_of(token).token(), token);  // round trip
  }
}

TEST(PolicySpec, RejectsMalformedTokens) {
  for (const char* bad : {"", "banana", "LRU", "assoc", "assoc:", "assoc:0",
                          "assoc:x", "assoc:4:2", "clock:2"}) {
    EXPECT_THROW(spec_of(bad), util::ParseError) << bad;
  }
}

TEST(CaConfigContract, ValidatesAndScalesTier1) {
  CaConfig config;
  EXPECT_TRUE(config.plain_lru());
  EXPECT_NO_THROW(config.validate());

  CaConfig scaled;
  scaled.tier1_num = 1;
  scaled.tier1_den = 2;
  EXPECT_FALSE(scaled.plain_lru());
  EXPECT_EQ(scaled.tier1_capacity(5), 2u);
  EXPECT_EQ(scaled.tier1_capacity(1), 1u);  // never below one block
  CaConfig two_thirds;
  two_thirds.tier1_num = 2;
  two_thirds.tier1_den = 3;
  EXPECT_EQ(two_thirds.tier1_capacity(7), 4u);  // floor(7 * 2/3)
  EXPECT_EQ(config.tier1_capacity(7), 7u);      // full share

  CaConfig bad = config;
  bad.tier1_num = 3;
  bad.tier1_den = 2;
  EXPECT_THROW(bad.validate(), util::CheckError);  // share above 1
  bad = config;
  bad.tier1_den = 0;
  EXPECT_THROW(bad.validate(), util::CheckError);
  bad = config;
  bad.tier2_blocks = 8;
  bad.tier2_miss_cost = 0;
  EXPECT_THROW(bad.validate(), util::CheckError);
  bad = config;
  bad.tier2_blocks = 8;
  bad.tier2_hit_cost = 5;
  bad.tier2_miss_cost = 2;
  EXPECT_THROW(bad.validate(), util::CheckError);  // miss below hit
  bad = config;
  bad.policy.kind = PolicyKind::kClock;
  bad.policy.ways = 2;
  EXPECT_THROW(bad.validate(), util::CheckError);  // ways without assoc
  bad = config;
  bad.policy.kind = PolicyKind::kLruAssoc;
  bad.policy.ways = 0;
  EXPECT_THROW(bad.validate(), util::CheckError);  // assoc without ways
}

// ---- Layer 1: each production policy vs its naive oracle ----

// The randomized schedule shared by every policy: ~90% accesses over a
// small universe (small enough that hits, evictions, and ghost revisits
// all happen constantly), ~6% resizes (capacity 0 and shrinks below the
// resident set included), ~4% full clears. 8 seeds x 15000 steps =
// 120000 operations per policy.
void run_policy_differential(const PolicySpec& spec) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const std::uint64_t universe = 1 + rng.below(96);
    const std::uint64_t cap0 = seed % 3;  // start at capacity 0, 1, 2
    const auto real = paging::make_policy_cache(spec, cap0);
    const auto oracle = paging::make_reference_policy(spec, cap0);
    for (int step = 0; step < 15000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 90) {
        const BlockId block = rng.below(universe);
        const auto a = real->access_tracking(block);
        const auto b = oracle->access_tracking(block);
        ASSERT_EQ(a.hit, b.hit) << spec.token() << " seed " << seed
                                << " step " << step;
        ASSERT_EQ(a.evicted, b.evicted)
            << spec.token() << " seed " << seed << " step " << step;
        if (a.evicted && b.evicted) {
          ASSERT_EQ(a.victim, b.victim)
              << spec.token() << " seed " << seed << " step " << step;
        }
      } else if (op < 96) {
        const std::uint64_t cap = rng.below(48);  // 0 allowed; often shrinks
        real->set_capacity(cap);
        oracle->set_capacity(cap);
      } else {
        real->clear();
        oracle->clear();
      }
      ASSERT_EQ(real->size(), oracle->size())
          << spec.token() << " seed " << seed << " step " << step;
      const BlockId probe = rng.below(universe);
      ASSERT_EQ(real->contains(probe), oracle->contains(probe))
          << spec.token() << " seed " << seed << " step " << step;
      expect_stats_eq(real->stats(), oracle->stats());
    }
  }
}

TEST(PolicyDifferential, ClockMatchesOracle) {
  run_policy_differential(spec_of("clock"));
}
TEST(PolicyDifferential, ArcMatchesOracle) {
  run_policy_differential(spec_of("arc"));
}
TEST(PolicyDifferential, CarMatchesOracle) {
  run_policy_differential(spec_of("car"));
}
TEST(PolicyDifferential, AssocDirectMappedMatchesOracle) {
  run_policy_differential(spec_of("assoc:1"));
}
TEST(PolicyDifferential, AssocThreeWayMatchesOracle) {
  run_policy_differential(spec_of("assoc:3"));
}
TEST(PolicyDifferential, LruAdapterMatchesOracle) {
  run_policy_differential(spec_of("lru"));
}

// ARC/CAR adaptation: the target p must track the oracle's through
// ghost hits, resizes, and clears (it steers every future eviction, so
// silent divergence here would surface as a victim mismatch much
// later — pin it directly).
TEST(PolicyDifferential, ArcTargetPTracksOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    ArcCache real(12);
    paging::ReferenceArcCache oracle(12);
    for (int step = 0; step < 10000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 92) {
        const BlockId block = rng.below(40);
        real.access(block);
        oracle.access(block);
      } else if (op < 97) {
        const std::uint64_t cap = rng.below(24);
        real.set_capacity(cap);
        oracle.set_capacity(cap);
      } else {
        real.clear();
        oracle.clear();
      }
      ASSERT_EQ(real.target_p(), oracle.target_p())
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(PolicyDifferential, CarTargetPTracksOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    CarCache real(12);
    paging::ReferenceCarCache oracle(12);
    for (int step = 0; step < 10000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 92) {
        const BlockId block = rng.below(40);
        real.access(block);
        oracle.access(block);
      } else if (op < 97) {
        const std::uint64_t cap = rng.below(24);
        real.set_capacity(cap);
        oracle.set_capacity(cap);
      } else {
        real.clear();
        oracle.clear();
      }
      ASSERT_EQ(real.target_p(), oracle.target_p())
          << "seed " << seed << " step " << step;
    }
  }
}

// ---- Known-answer tests: the behaviors that make each policy itself ----

// LRU stack inclusion: an LRU cache of capacity C holds a subset of
// what a larger LRU cache holds on the same stream, at every step. The
// inclusion property is what makes LRU a stack algorithm; CLOCK is NOT
// one (no assertion of the converse here, the differential suite covers
// CLOCK's actual behavior).
TEST(PolicyKnownAnswers, LruStackInclusion) {
  LruCache small(4);
  LruCache large(8);
  util::Rng rng(5);
  for (int step = 0; step < 5000; ++step) {
    const BlockId block = rng.below(32);
    small.access(block);
    large.access(block);
    for (BlockId probe = 0; probe < 32; ++probe) {
      if (small.contains(probe)) {
        ASSERT_TRUE(large.contains(probe)) << "step " << step;
      }
    }
  }
}

// CLOCK's one-bit second chance on a crafted loop: fill capacity 3 with
// 1,2,3, re-reference 1, then miss on 4. The hand starts at 1, spends
// its reference bit instead of evicting it, and the victim is 2 — under
// LRU the victim would have been the same here, but 1 survives with its
// bit spent, so the NEXT miss evicts 1's neighbor rather than cycling.
TEST(PolicyKnownAnswers, ClockSecondChance) {
  ClockCache clock(3);
  clock.access(1);
  clock.access(2);
  clock.access(3);
  clock.access(1);  // sets 1's reference bit; no movement
  const auto r = clock.access_tracking(4);
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 2u);  // 1 got its second chance
  EXPECT_TRUE(clock.contains(1));
  EXPECT_FALSE(clock.contains(2));
  // The sweep left the hand past slot 1: the next unreferenced frame is
  // 3, so a further one-shot miss evicts 3, not 1.
  const auto r2 = clock.access_tracking(5);
  ASSERT_TRUE(r2.evicted);
  EXPECT_EQ(r2.victim, 3u);
  EXPECT_TRUE(clock.contains(1));
}

// ARC scan resistance: a re-referenced working set lands in T2; a long
// one-shot scan then churns through T1 only. The working set survives
// the scan entirely, whereas plain LRU of the same capacity forgets it.
TEST(PolicyKnownAnswers, ArcScanResistance) {
  constexpr std::uint64_t kCap = 8;
  ArcCache arc(kCap);
  LruCache lru(kCap);
  for (BlockId b = 0; b < 4; ++b) {  // working set, referenced twice
    arc.access(b);
    lru.access(b);
  }
  for (BlockId b = 0; b < 4; ++b) {
    arc.access(b);  // promotes 0..3 into T2
    lru.access(b);
  }
  for (BlockId b = 100; b < 164; ++b) {  // one-shot scan, 64 blocks
    arc.access(b);
    lru.access(b);
  }
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_TRUE(arc.contains(b)) << "ARC lost working-set block " << b;
    EXPECT_FALSE(lru.contains(b)) << "LRU kept " << b << " through the scan";
  }
  // And the working set still hits, for free.
  const auto stats_before = arc.stats();
  for (BlockId b = 0; b < 4; ++b) EXPECT_TRUE(arc.access(b));
  EXPECT_EQ(arc.stats().hits, stats_before.hits + 4);
}

// CAR inherits ARC's scan resistance through its clocks: re-referenced
// frames migrate to the T2 clock during REPLACE and the scan recycles
// through T1.
TEST(PolicyKnownAnswers, CarScanResistance) {
  constexpr std::uint64_t kCap = 8;
  CarCache car(kCap);
  LruCache lru(kCap);
  for (BlockId b = 0; b < 4; ++b) {
    car.access(b);
    lru.access(b);
  }
  for (BlockId b = 0; b < 4; ++b) {
    car.access(b);  // sets the reference bits
    lru.access(b);
  }
  for (BlockId b = 100; b < 164; ++b) {
    car.access(b);
    lru.access(b);
  }
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_TRUE(car.contains(b)) << "CAR lost working-set block " << b;
    EXPECT_FALSE(lru.contains(b));
  }
}

// A ghost hit moves ARC's target p: after the scan, re-touching a
// freshly evicted scan block (now in B1) grows p toward recency.
TEST(PolicyKnownAnswers, ArcGhostHitMovesTarget) {
  ArcCache arc(8);
  for (BlockId b = 0; b < 4; ++b) arc.access(b);
  for (BlockId b = 0; b < 4; ++b) arc.access(b);
  for (BlockId b = 100; b < 120; ++b) arc.access(b);
  EXPECT_EQ(arc.target_p(), 0u);
  arc.access(115);  // in B1 by now: a recency ghost hit
  EXPECT_GT(arc.target_p(), 0u);
}

// Set-associative LRU conflict-misses on blocks that a fully
// associative cache of the same total capacity holds comfortably:
// direct-mapped (assoc:1) with 4 sets thrashes on two blocks 4 apart.
TEST(PolicyKnownAnswers, AssocConflictMisses) {
  paging::AssocLruCache assoc(4, /*ways=*/1);  // 4 sets of 1 way
  LruCache full(4);
  for (int round = 0; round < 50; ++round) {
    assoc.access(0);
    assoc.access(4);  // same set (4 % 4 == 0): evicts 0 every time
    full.access(0);
    full.access(4);
  }
  EXPECT_EQ(assoc.stats().hits, 0u);
  EXPECT_EQ(full.stats().hits, 98u);  // everything after the cold misses
}

// ---- Layer 2: the policy-parameterized CaMachine ----

std::vector<profile::BoxSize> random_box_vector(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<profile::BoxSize> boxes;
  for (int i = 0; i < 37; ++i) boxes.push_back(1 + rng.below(40));
  return boxes;
}

std::unique_ptr<profile::BoxSource> cycling_boxes(
    const std::vector<profile::BoxSize>& boxes) {
  return std::make_unique<profile::CyclingSource>([boxes] {
    return std::make_unique<profile::VectorSource>(boxes);
  });
}

// Same word stream as the fast-path suite: sequential stretches,
// dwells (repeat hits), and jumps.
template <typename Touch>
void drive_random_stream(std::uint64_t seed, Touch&& touch) {
  util::Rng rng(seed);
  std::uint64_t addr = 0;
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 4) {
      addr = rng.below(1 << 12);
      touch(addr, 1);
    } else if (op < 8) {
      touch(addr, 1 + rng.below(6));
    } else {
      for (int i = 0; i < 8; ++i) touch(++addr, 1);
    }
  }
}

// A from-scratch naive two-tier machine over the oracle policies,
// mirroring docs/PAGING.md's cost model directly: tier-1 hits free;
// spill-then-fetch on a miss; boxes roll over on >= with the boundary
// double-miss; per-access only, no shortcut, no batching. This is the
// machine-level analogue of reference_lru.hpp's ReferenceCaMachine.
class NaiveTwoTierMachine {
 public:
  NaiveTwoTierMachine(std::vector<profile::BoxSize> boxes,
                      std::uint64_t block_size, const CaConfig& config)
      : boxes_(std::move(boxes)),
        block_size_(block_size),
        config_(config),
        tier1_(paging::make_reference_policy(config.policy, 0)),
        tier2_(config.two_tier() ? paging::make_reference_policy(
                                       config.policy, config.tier2_blocks)
                                 : nullptr) {
    start_next_box();
  }

  void access(std::uint64_t addr) {
    ++accesses_;
    const BlockId block = addr / block_size_;
    const auto r1 = tier1_->access_tracking(block);
    if (r1.hit) return;
    if (tier2_ != nullptr && r1.evicted) tier2_->access(r1.victim);
    if (misses_in_box_ >= box_size_) {
      start_next_box();
      tier1_->access_tracking(block);  // boundary double-miss
    }
    std::uint64_t cost = 1;
    if (tier2_ != nullptr) {
      cost = tier2_->access_tracking(block).hit ? config_.tier2_hit_cost
                                                : config_.tier2_miss_cost;
    }
    misses_ += cost;
    misses_in_box_ += cost;
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t boxes_started() const { return boxes_started_; }
  std::uint64_t current_box_size() const { return box_size_; }
  const LruCache::Stats& cache_stats() const { return tier1_->stats(); }
  LruCache::Stats tier2_stats() const {
    return tier2_ != nullptr ? tier2_->stats() : LruCache::Stats{};
  }
  const std::vector<profile::BoxSize>& box_log() const { return box_log_; }

 private:
  void start_next_box() {
    box_size_ = boxes_[next_ % boxes_.size()];
    ++next_;
    ++boxes_started_;
    misses_in_box_ = 0;
    tier1_->clear();
    tier1_->set_capacity(config_.tier1_capacity(box_size_));
    box_log_.push_back(box_size_);
  }

  std::vector<profile::BoxSize> boxes_;
  std::uint64_t block_size_;
  CaConfig config_;
  std::unique_ptr<CachePolicy> tier1_;
  std::unique_ptr<CachePolicy> tier2_;
  std::size_t next_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t boxes_started_ = 0;
  std::uint64_t box_size_ = 0;
  std::uint64_t misses_in_box_ = 0;
  std::vector<profile::BoxSize> box_log_;
};

CaConfig scaled_config(const std::string& policy) {
  CaConfig config;
  config.policy = spec_of(policy);
  config.tier1_num = 1;  // half share: the policy genuinely evicts
  config.tier1_den = 2;
  return config;
}

CaConfig two_tier_config(const std::string& policy) {
  CaConfig config = scaled_config(policy);
  config.tier2_blocks = 64;
  config.tier2_hit_cost = 1;
  config.tier2_miss_cost = 4;
  return config;
}

// Fast dispatch (hot-block shortcut + access_run) vs the forced
// per-access path vs the naive oracle machine, per policy, single-tier
// scaled share and two-tier: every exposed counter must agree.
void run_machine_differential(const CaConfig& config) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto boxes = random_box_vector(seed);
    CaMachine fast(cycling_boxes(boxes), 8, /*record_boxes=*/true, nullptr,
                   config);
    CaMachine per_access(cycling_boxes(boxes), 8, /*record_boxes=*/true,
                         nullptr, config);
    per_access.set_per_access(true);
    NaiveTwoTierMachine naive(boxes, 8, config);
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      fast.access_run(addr, count);
      for (std::uint64_t i = 0; i < count; ++i) per_access.access(addr);
      for (std::uint64_t i = 0; i < count; ++i) naive.access(addr);
    };
    drive_random_stream(seed, touch);
    EXPECT_GT(fast.fast_hits(), 0u);  // the hit-armed shortcut engaged
    EXPECT_EQ(per_access.fast_hits(), 0u);
    expect_ca_machines_eq(fast, per_access);
    expect_core_counters_eq(fast, naive);
    EXPECT_EQ(fast.box_log(), naive.box_log());
    expect_stats_eq(fast.tier2_stats(), naive.tier2_stats());
  }
}

TEST(PolicyMachineDifferential, ClockSingleTier) {
  run_machine_differential(scaled_config("clock"));
}
TEST(PolicyMachineDifferential, ArcSingleTier) {
  run_machine_differential(scaled_config("arc"));
}
TEST(PolicyMachineDifferential, CarSingleTier) {
  run_machine_differential(scaled_config("car"));
}
TEST(PolicyMachineDifferential, AssocSingleTier) {
  run_machine_differential(scaled_config("assoc:3"));
}
TEST(PolicyMachineDifferential, LruScaledShareSingleTier) {
  // Plain LRU below full share leaves the fast path too — the general
  // path's LRU must agree with the oracle like any other policy.
  run_machine_differential(scaled_config("lru"));
}
TEST(PolicyMachineDifferential, ClockTwoTier) {
  run_machine_differential(two_tier_config("clock"));
}
TEST(PolicyMachineDifferential, ArcTwoTier) {
  run_machine_differential(two_tier_config("arc"));
}
TEST(PolicyMachineDifferential, CarTwoTier) {
  run_machine_differential(two_tier_config("car"));
}
TEST(PolicyMachineDifferential, AssocTwoTier) {
  run_machine_differential(two_tier_config("assoc:3"));
}
TEST(PolicyMachineDifferential, LruTwoTierFullShare) {
  // Full tier-1 share with a tier 2 attached: still not plain (tier-2
  // costs change the counters), still exact.
  CaConfig config = two_tier_config("lru");
  config.tier1_num = config.tier1_den = 1;
  run_machine_differential(config);
}

// Definition-1 observability (docs/PAGING.md): at full share with one
// tier, a box's cache is exactly its miss budget, so the machine never
// evicts under pressure and any fully associative policy produces the
// very same counters as plain LRU — misses are "distinct blocks since
// the box began" regardless of replacement order. (Set-associative
// caches conflict-miss before filling up, so assoc is exempt — see
// AssocFullShareDiverges.)
TEST(PolicyMachineDifferential, FullShareFullAssocMatchesPlainLru) {
  for (const std::string policy : {"clock", "arc", "car"}) {
    const auto boxes = random_box_vector(11);
    CaMachine plain(cycling_boxes(boxes), 8, /*record_boxes=*/true);
    CaConfig config;
    config.policy = spec_of(policy);
    CaMachine zoo(cycling_boxes(boxes), 8, /*record_boxes=*/true, nullptr,
                  config);
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      plain.access_run(addr, count);
      zoo.access_run(addr, count);
    };
    drive_random_stream(11, touch);
    expect_ca_machines_eq(plain, zoo);
  }
}

TEST(PolicyMachineDifferential, AssocFullShareDiverges) {
  // Two blocks colliding in a direct-mapped set thrash even though the
  // whole cache has room: full share does NOT hide set-associativity.
  const std::vector<profile::BoxSize> boxes{8};
  CaMachine plain(cycling_boxes(boxes), 8, /*record_boxes=*/false);
  CaConfig config;
  config.policy = spec_of("assoc:1");
  CaMachine assoc(cycling_boxes(boxes), 8, /*record_boxes=*/false, nullptr,
                  config);
  for (int round = 0; round < 3; ++round) {
    for (const std::uint64_t addr : {0u * 8u, 8u * 8u}) {  // blocks 0 and 8
      plain.access(addr);
      assoc.access(addr);
    }
  }
  EXPECT_GT(assoc.misses(), plain.misses());
}

// The rollover double-miss, per policy, in closed form: on a
// single-tier machine every box after the first is entered by an access
// that missed in the dying box's full cache and re-missed after the
// boundary clear, so the tier-1 Stats record exactly one extra miss per
// boundary crossed: stats.misses == machine misses + (boxes - 1).
TEST(PolicyMachineDifferential, RolloverDoubleMissClosedForm) {
  for (const std::string& policy : all_policy_tokens()) {
    const auto boxes = random_box_vector(29);
    const CaConfig config = scaled_config(policy);
    CaMachine machine(cycling_boxes(boxes), 8, /*record_boxes=*/false,
                      nullptr, config);
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      machine.access_run(addr, count);
    };
    drive_random_stream(29, touch);
    ASSERT_GT(machine.boxes_started(), 1u);
    EXPECT_EQ(machine.cache_stats().misses,
              machine.misses() + machine.boxes_started() - 1)
        << policy;
  }
}

// The box-log cap must behave identically across dispatch modes for
// every policy (same retained suffix, same drop count) — the general
// path shares start_next_box with the plain one, but pin it anyway.
TEST(PolicyMachineDifferential, BoxLogCapPerPolicy) {
  for (const std::string policy : {"clock", "car"}) {
    const auto boxes = random_box_vector(31);
    const CaConfig config = scaled_config(policy);
    CaMachine fast(cycling_boxes(boxes), 8, /*record_boxes=*/true, nullptr,
                   config);
    fast.set_box_log_cap(16);
    CaMachine per_access(cycling_boxes(boxes), 8, /*record_boxes=*/true,
                         nullptr, config);
    per_access.set_box_log_cap(16);
    per_access.set_per_access(true);
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      fast.access_run(addr, count);
      for (std::uint64_t i = 0; i < count; ++i) per_access.access(addr);
    };
    drive_random_stream(31, touch);
    EXPECT_GT(fast.box_log_dropped(), 0u) << policy;
    EXPECT_EQ(fast.box_log_dropped(), per_access.box_log_dropped()) << policy;
    EXPECT_EQ(fast.box_log(), per_access.box_log()) << policy;
    EXPECT_LE(fast.box_log().size(), 32u);
  }
}

// ---- The fixed-capacity DAM under the zoo ----

TEST(PolicyDamDifferential, FastVsPerAccessVsOracle) {
  for (const std::string& policy : all_policy_tokens()) {
    const PolicySpec spec = spec_of(policy);
    paging::DamMachine fast(24, 8, spec);
    paging::DamMachine per_access(24, 8, spec);
    per_access.set_per_access(true);
    const auto oracle = paging::make_reference_policy(spec, 24);
    std::uint64_t oracle_misses = 0;
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      fast.access_run(addr, count);
      for (std::uint64_t i = 0; i < count; ++i) per_access.access(addr);
      for (std::uint64_t i = 0; i < count; ++i) {
        if (!oracle->access(addr / 8)) ++oracle_misses;
      }
    };
    drive_random_stream(7, touch);
    EXPECT_EQ(fast.accesses(), per_access.accesses()) << policy;
    EXPECT_EQ(fast.misses(), per_access.misses()) << policy;
    EXPECT_EQ(fast.misses(), oracle_misses) << policy;
    expect_stats_eq(fast.cache_stats(), per_access.cache_stats());
    expect_stats_eq(per_access.cache_stats(), oracle->stats());
  }
}

// ---- Cell-level bit identity through the campaign runner ----

engine::McSummary run_policy_cell(const std::string& policy, bool tiers,
                                  bool capture, bool per_access,
                                  std::size_t threads) {
  campaign::Cell cell;
  cell.sort = "funnel";
  cell.profile =
      campaign::parse_profile_token("uniform:4:64", campaign::Workload::kSort);
  cell.seed = 7;
  cell.policy = policy;
  campaign::CellRunOptions options;
  options.keys = 2048;
  options.block = 8;
  options.timing = false;
  options.capture_trace = capture;
  options.per_access = per_access;
  if (tiers) {
    options.tiers.set = true;
    options.tiers.tier2_blocks = 64;
    options.tiers.tier2_hit_cost = 1;
    options.tiers.tier2_miss_cost = 4;
    options.tiers.tier1_num = 1;
    options.tiers.tier1_den = 2;
  }
  engine::McOptions mc;
  mc.trials = 8;
  mc.seed = cell.seed;
  util::ThreadPool pool(threads);
  mc.pool = &pool;
  return campaign::run_cell_trials(mc,
                                   campaign::make_cell_runner(cell, options));
}

// Every policy's campaign cell is bit-identical across thread pools
// 1/2/8 and across the fast vs per-access dispatch modes, with the
// two-tier machine attached.
TEST(PolicyCellDifferential, PoolSizesAndDispatchAgree) {
  for (const std::string policy : {"clock", "arc", "car", "assoc:4"}) {
    const auto base = run_policy_cell(policy, /*tiers=*/true,
                                      /*capture=*/false,
                                      /*per_access=*/false, /*threads=*/1);
    EXPECT_EQ(base.failed, 0u) << policy;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      expect_summaries_eq(base,
                          run_policy_cell(policy, true, false, false, threads));
    }
    expect_summaries_eq(base, run_policy_cell(policy, true, false, true, 1));
  }
}

// Capture/replay with a policy config routes through the generic replay
// (the fast walk's never-evict argument needs the plain machine) and
// must still be deterministic across pools and vs per-access.
TEST(PolicyCellDifferential, CaptureReplayFallsBackDeterministically) {
  const auto base = run_policy_cell("clock", /*tiers=*/true, /*capture=*/true,
                                    /*per_access=*/false, /*threads=*/1);
  EXPECT_EQ(base.failed, 0u);
  expect_summaries_eq(base, run_policy_cell("clock", true, true, false, 8));
  expect_summaries_eq(base, run_policy_cell("clock", true, true, true, 2));
}

// ca_config_for: the glue between a planned cell and the machine.
TEST(PolicyCellDifferential, CaConfigForBuildsTheMachineConfig) {
  campaign::Cell cell;
  cell.policy = "assoc:4";
  campaign::CellRunOptions options;
  options.tiers.set = true;
  options.tiers.tier2_blocks = 256;
  options.tiers.tier2_hit_cost = 2;
  options.tiers.tier2_miss_cost = 5;
  options.tiers.tier1_num = 1;
  options.tiers.tier1_den = 2;
  const CaConfig config = campaign::ca_config_for(cell, options);
  EXPECT_EQ(config.policy.kind, PolicyKind::kLruAssoc);
  EXPECT_EQ(config.policy.ways, 4u);
  EXPECT_EQ(config.tier2_blocks, 256u);
  EXPECT_EQ(config.tier2_hit_cost, 2u);
  EXPECT_EQ(config.tier2_miss_cost, 5u);
  EXPECT_EQ(config.tier1_num, 1u);
  EXPECT_EQ(config.tier1_den, 2u);
  EXPECT_FALSE(config.plain_lru());

  const CaConfig plain =
      campaign::ca_config_for(campaign::Cell{}, campaign::CellRunOptions{});
  EXPECT_TRUE(plain.plain_lru());
}

}  // namespace
}  // namespace cadapt

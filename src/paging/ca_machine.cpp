#include "paging/ca_machine.hpp"

#include "util/check.hpp"

namespace cadapt::paging {

const char* replay_path_name(ReplayPath path) {
  switch (path) {
    case ReplayPath::kNone: return "none";
    case ReplayPath::kFastWalk: return "fast-walk";
    case ReplayPath::kGenericConfig: return "generic:config";
    case ReplayPath::kGenericRecorder: return "generic:recorder";
    case ReplayPath::kGenericPerAccess: return "generic:per-access";
    case ReplayPath::kGenericBoxHook: return "generic:box-hook";
    case ReplayPath::kGenericUsedMachine: return "generic:used-machine";
    case ReplayPath::kGenericUnindexed: return "generic:unindexed";
  }
  return "?";
}

CaMachine::CaMachine(std::unique_ptr<profile::BoxSource> source,
                     std::uint64_t block_size, bool record_boxes,
                     obs::PagingRecorder* recorder, CaConfig config)
    : Machine(block_size), source_(std::move(source)), cache_(0),
      config_(std::move(config)), plain_(config_.plain_lru()),
      record_boxes_(record_boxes), recorder_(recorder) {
  CADAPT_CHECK(source_ != nullptr);
  config_.validate();
  if (!plain_) {
    tier1_ = make_policy_cache(config_.policy, 0);
    if (config_.two_tier()) {
      tier2_ = make_policy_cache(config_.policy, config_.tier2_blocks);
    }
  }
  // Per-access recorder granularity is incompatible with the repeat-hit
  // shortcut (skipped hits would never reach on_access), so a recorder
  // pins the machine to the reference path.
  if (recorder_ != nullptr) set_per_access(true);
  start_next_box();
}

void CaMachine::start_next_box() {
  if (cancel_ != nullptr) cancel_->poll();
  const auto box = source_->next();
  CADAPT_CHECK_MSG(box.has_value(),
                   "profile exhausted after " << boxes_started_
                                              << " boxes; wrap finite profiles "
                                                 "in profile::CyclingSource");
  box_size_ = *box;
  CADAPT_CHECK(box_size_ >= 1);
  if (box_hook_) box_hook_(boxes_started_, box_size_);
  misses_in_box_ = 0;
  ++boxes_started_;
  if (plain_) {
    cache_.clear();
    cache_.set_capacity(box_size_);
  } else {
    // The boundary clear is a model reset: tier-1 contents vanish
    // without spilling into tier 2. Tier 2 persists across boxes.
    tier1_->clear();
    tier1_->set_capacity(config_.tier1_capacity(box_size_));
  }
  if (record_boxes_) {
    if (box_log_cap_ != 0 && box_log_.size() >= box_log_cap_ * 2) {
      const std::size_t drop = box_log_.size() - box_log_cap_;
      box_log_.erase(box_log_.begin(),
                     box_log_.begin() + static_cast<std::ptrdiff_t>(drop));
      box_log_dropped_ += drop;
    }
    box_log_.push_back(box_size_);
  }
  if (recorder_ != nullptr) recorder_->on_box_start(box_size_);
}

void CaMachine::replay_trace(const BlockRunTrace& trace) {
  // The fast walk's never-evict argument only holds for the historical
  // Definition-1 machine (plain LRU, full share, one tier); everything
  // else must actually run the cache(s).
  ReplayPath generic = ReplayPath::kNone;
  if (!plain_) {
    generic = ReplayPath::kGenericConfig;
  } else if (recorder_ != nullptr) {
    generic = ReplayPath::kGenericRecorder;
  } else if (per_access()) {
    generic = ReplayPath::kGenericPerAccess;
  } else if (box_hook_) {
    generic = ReplayPath::kGenericBoxHook;
  } else if (accesses() != 0) {
    generic = ReplayPath::kGenericUsedMachine;
  } else if (!trace.has_replay_index()) {
    generic = ReplayPath::kGenericUnindexed;
  }
  if (generic != ReplayPath::kNone) {
    last_replay_path_ = generic;
    trace.replay_into(*this);
    return;
  }
  last_replay_path_ = ReplayPath::kFastWalk;
  if (trace.block_size() != 0) {
    CADAPT_CHECK_MSG(block_size() == trace.block_size(),
                     "trace recorded at block size "
                         << trace.block_size() << ", machine uses "
                         << block_size());
  }
  const std::vector<BlockRunTrace::ReplayStep>& steps = trace.replay_steps();
  std::uint64_t box_start = 0;  // run index where the current box began
  std::uint64_t new_misses = 0;
  for (std::uint64_t i = 0; i < steps.size(); ++i) {
    // prev1 <= box_start: the block was last touched before this box
    // began (or never) — it is not cached, so this run opens with a miss;
    // all other accesses of the run hit for free. Kept branchless (the
    // miss/hit pattern is data-dependent) except for the rare rollover.
    const std::uint64_t miss =
        static_cast<std::uint64_t>(steps[i].prev1 <= box_start);
    misses_in_box_ += miss;
    new_misses += miss;
    if (misses_in_box_ > box_size_) [[unlikely]] {
      // On the direct path the access that overflows the box first
      // misses in (and evicts from) the dying box's full cache, then
      // re-misses after the boundary clears it.
      ++replay_evictions_;
      ++replay_misses_;
      start_next_box();
      box_start = i;
      misses_in_box_ = 1;
    }
  }
  misses_ += new_misses;
  replay_misses_ += new_misses;
  replay_hits_ += trace.accesses() - new_misses;
  count_bulk_accesses(trace.accesses());
}

void CaMachine::access_cold_general(BlockId block) {
  // Tier 1 follows the (possibly scaled) box profile under the chosen
  // policy; unlike the Definition-1 fast path it can genuinely evict
  // under pressure.
  LruCache::AccessResult r1 = tier1_->access_tracking(block);
  if (r1.hit) {  // tier-1 hit: free
    if (recorder_ != nullptr) {
      recorder_->on_access(box_size_, /*hit=*/true, /*evicted=*/false);
    }
    mark_hot(block);
    return;
  }
  clear_hot();
  // Spill the victim down before fetching: tier 2 models the next
  // memory level, so a block pushed out of tier 1 lands there (free —
  // write-back is not charged against the box budget).
  if (tier2_ != nullptr && r1.evicted) tier2_->access(r1.victim);
  // Asymmetric costs can overshoot the budget, so boxes roll over on
  // >=, not ==; the overshooting access's cost was charged to the box
  // that ran out (it overruns rather than splits).
  if (misses_in_box_ >= box_size_) {
    start_next_box();
    // Mirror the plain path's boundary double-miss: the access re-runs
    // against the fresh (cleared) tier 1, which cannot hit.
    const LruCache::AccessResult r1b = tier1_->access_tracking(block);
    CADAPT_CHECK(!r1b.hit);
  }
  std::uint64_t cost = 1;
  if (tier2_ != nullptr) {
    const LruCache::AccessResult r2 = tier2_->access_tracking(block);
    cost = r2.hit ? config_.tier2_hit_cost : config_.tier2_miss_cost;
    if (recorder_ != nullptr) recorder_->on_tier2(r2.hit);
  }
  misses_ += cost;
  misses_in_box_ += cost;
  if (recorder_ != nullptr) {
    recorder_->on_access(box_size_, /*hit=*/false, r1.evicted);
  }
  // No mark_hot here, unlike the plain path: the first re-access after
  // a miss is a hit that still mutates policy state (CLOCK/CAR set the
  // reference bit, ARC promotes T1 -> T2), so it must reach the cache.
  // Once that hit has run (and armed the shortcut above), further
  // repeats are idempotent for every policy in the zoo.
}

void CaMachine::access_cold(WordAddr, BlockId block) {
  if (!plain_) [[unlikely]] {
    access_cold_general(block);
    return;
  }
  if (cache_.access(block)) {  // hit: free
    if (recorder_ != nullptr) {
      recorder_->on_access(box_size_, /*hit=*/true, /*evicted=*/false);
    }
    mark_hot(block);  // the MRU block survives until the next miss at worst
    return;
  }
  // The hook/check below can throw mid-access; drop the repeat shortcut
  // first so a contained failure cannot leave a stale hot block.
  clear_hot();
  // The access that fell out of the current box's capacity starts the
  // next box; with the cleared cache it is necessarily a miss there.
  if (misses_in_box_ == box_size_) {
    start_next_box();
    const bool hit = cache_.access(block);
    CADAPT_CHECK(!hit);
  }
  ++misses_;
  ++misses_in_box_;
  if (recorder_ != nullptr) {
    // The CA machine never evicts under pressure: each box's cache is
    // exactly as large as its miss budget, so a box fills up and is then
    // cleared wholesale at the boundary.
    recorder_->on_access(box_size_, /*hit=*/false, /*evicted=*/false);
  }
  mark_hot(block);  // just loaded: box capacity >= 1 keeps it resident
}

}  // namespace cadapt::paging

// The cache-adaptive machine (Definition 1 + paper conventions): the cache
// size follows a square profile. A box of size x means the cache holds x
// blocks for exactly x I/Os (misses); the cache is cleared at each box
// boundary (w.l.o.g. per the paging results underlying cache-adaptivity).
// Hits are free — only misses advance time.
//
// A CaConfig (paging/policy.hpp) generalizes this to the two-tier,
// policy-parameterized machine of docs/PAGING.md; the default config
// is the historical Definition-1 machine on its LruCache fast path.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "obs/recorder.hpp"
#include "paging/block_run.hpp"
#include "paging/lru_cache.hpp"
#include "paging/machine.hpp"
#include "paging/policy.hpp"
#include "profile/box_source.hpp"
#include "robust/cancel.hpp"

namespace cadapt::paging {

/// Which path served the last replay_trace call (docs/PAGING.md): the
/// O(runs) fast walk, or the generic per-run replay with the reason the
/// walk was refused. kNone until replay_trace has been called.
enum class ReplayPath : std::uint8_t {
  kNone,               ///< replay_trace not called yet
  kFastWalk,           ///< Definition-1 fast walk
  kGenericConfig,      ///< non-LRU policy, scaled share, or two tiers
  kGenericRecorder,    ///< per-access recorder attached
  kGenericPerAccess,   ///< set_per_access(true)
  kGenericBoxHook,     ///< box hook must see real cache state
  kGenericUsedMachine, ///< machine already served accesses
  kGenericUnindexed,   ///< trace recorded without its replay index
};

const char* replay_path_name(ReplayPath path);

class CaMachine final : public Machine {
 public:
  /// Takes ownership of the box stream. The stream must supply a box
  /// whenever one is needed (use profile::CyclingSource for finite
  /// adversarial profiles); exhaustion mid-run is a checked error.
  /// An optional recorder tallies hits/misses/evictions bucketed by the
  /// size class (floor log2) of the box they landed in; it must outlive
  /// the machine. A non-null recorder forces the per-access reference
  /// path (set_per_access) so its per-access tallies stay byte-identical
  /// to the pre-fast-path behavior (docs/PERF.md, docs/OBSERVABILITY.md).
  ///
  /// `config` generalizes the machine beyond Definition 1 (docs/
  /// PAGING.md): a replacement policy other than LRU, a tier-1 capacity
  /// share below 1, and/or a fixed-size persistent tier 2 absorbing
  /// tier-1 spill with asymmetric hit/miss costs charged against the
  /// box budget. The default config is the historical machine bit for
  /// bit — same LruCache member, same code path.
  CaMachine(std::unique_ptr<profile::BoxSource> source,
            std::uint64_t block_size, bool record_boxes = true,
            obs::PagingRecorder* recorder = nullptr, CaConfig config = {});

  std::uint64_t misses() const override { return misses_; }

  /// Boxes started so far (the last one may be partially used).
  std::uint64_t boxes_started() const { return boxes_started_; }
  /// Misses served within the current box (< its size).
  std::uint64_t misses_in_current_box() const { return misses_in_box_; }
  std::uint64_t current_box_size() const { return box_size_; }
  /// Sizes of boxes started, if record_boxes was set. With a box-log cap
  /// (below) this is the most recent cap..2*cap boxes, oldest first.
  const std::vector<profile::BoxSize>& box_log() const { return box_log_; }
  /// Lifetime hit/miss/eviction counters of the underlying tier-1
  /// cache. Repeat hits resolved by the base-class shortcut never reach
  /// the cache, so they are folded back into `hits` here — the totals
  /// are identical to the per-access path by construction.
  LruCache::Stats cache_stats() const {
    LruCache::Stats stats = plain_ ? cache_.stats() : tier1_->stats();
    stats.hits += fast_hits() + replay_hits_;
    stats.misses += replay_misses_;
    stats.evictions += replay_evictions_;
    return stats;
  }
  /// Tier-2 cache counters (zero when single-tier). Spill inserts of
  /// tier-1 victims and demand fetches both land here; the per-access
  /// demand split is on the recorder's tier2() tally.
  LruCache::Stats tier2_stats() const {
    return tier2_ != nullptr ? tier2_->stats() : LruCache::Stats{};
  }
  const CaConfig& config() const { return config_; }

  /// Consume a recorded trace, exactly equivalent (counter for counter:
  /// accesses, misses, boxes, misses_in_current_box, cache_stats,
  /// box_log) to trace.replay_into(*this) — and through it to running
  /// the recorded algorithm directly. The fast walk exploits Definition
  /// 1: each box's cache is exactly its miss budget, so the CA machine
  /// never evicts under pressure and a box's misses are precisely the
  /// distinct blocks touched since it began. With the trace's
  /// previous-occurrence index that is one branch per run — no hash
  /// probe, no LRU update (docs/PERF.md, "Paging fast path"). Falls back
  /// to the generic per-run replay whenever exactness demands it: a
  /// non-default CaConfig (the walk's never-evict argument needs plain
  /// LRU at full share with one tier), a recorder or per-access mode
  /// (per-access observation), a box hook (fault injection must see
  /// real cache state), prior accesses, or a trace without its index.
  /// last_replay_path() reports which path ran and, for the generic
  /// path, why. After the fast walk the counters are final but the
  /// cache contents are unspecified: do not feed the machine further
  /// accesses.
  void replay_trace(const BlockRunTrace& trace);

  /// The path taken by the most recent replay_trace call.
  ReplayPath last_replay_path() const { return last_replay_path_; }

  /// Bound box_log_ memory for long runs: once the log holds 2*cap
  /// entries, the oldest cap are dropped (amortized O(1)), keeping the
  /// most recent >= cap boxes. 0 (the default) = unbounded, the
  /// historical behavior. Drops are counted, never silent.
  void set_box_log_cap(std::uint64_t cap) { box_log_cap_ = cap; }
  std::uint64_t box_log_dropped() const { return box_log_dropped_; }

  /// Called as (box_index, box_size) at every box boundary, before the
  /// box is counted or its cache installed — so a hook that throws (e.g.
  /// robust::paging_fault_hook injecting at the paging_step site) leaves
  /// the machine's tallies consistent with the boxes actually started.
  /// Null (the default) costs one predictable branch per box.
  using BoxHook = std::function<void(std::uint64_t, std::uint64_t)>;
  void set_box_hook(BoxHook hook) { box_hook_ = std::move(hook); }

  /// Cooperative cancellation (docs/ROBUSTNESS.md): poll `cancel` at
  /// every box boundary and unwind via robust::CancelledError once it
  /// fires, like engine::RegularExecution::set_cancel. Unlike a box hook
  /// it keeps replay_trace on the fast walk, whose box rollovers go
  /// through the same boundary. Null (the default) detaches; the token
  /// must outlive the machine.
  void set_cancel(const robust::CancelToken* cancel) { cancel_ = cancel; }

 protected:
  void access_cold(WordAddr addr, BlockId block) override;

 private:
  void start_next_box();
  void access_cold_general(BlockId block);

  std::unique_ptr<profile::BoxSource> source_;
  LruCache cache_;  ///< tier 1 on the plain-LRU fast path
  CaConfig config_;
  bool plain_;  ///< config_.plain_lru(), hoisted for the hot path
  // Non-default configs route through the policy interface: tier1_ is
  // installed per box (share-scaled capacity), tier2_ persists across
  // boxes. Both null on the plain path.
  std::unique_ptr<CachePolicy> tier1_;
  std::unique_ptr<CachePolicy> tier2_;
  bool record_boxes_;
  obs::PagingRecorder* recorder_;
  std::uint64_t misses_ = 0;
  std::uint64_t boxes_started_ = 0;
  std::uint64_t box_size_ = 0;
  std::uint64_t misses_in_box_ = 0;
  std::uint64_t box_log_cap_ = 0;
  std::uint64_t box_log_dropped_ = 0;
  // Cache events accounted by the replay_trace fast walk, which bypasses
  // cache_; folded into cache_stats() so totals match the direct run.
  std::uint64_t replay_hits_ = 0;
  std::uint64_t replay_misses_ = 0;
  std::uint64_t replay_evictions_ = 0;
  ReplayPath last_replay_path_ = ReplayPath::kNone;
  BoxHook box_hook_;
  const robust::CancelToken* cancel_ = nullptr;
  std::vector<profile::BoxSize> box_log_;
};

}  // namespace cadapt::paging

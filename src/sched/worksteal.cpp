#include "sched/worksteal.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "model/potential.hpp"
#include "obs/recorder.hpp"
#include "robust/cancel.hpp"
#include "sched/deque.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt::sched {

namespace {

/// Seeded victim choice: a pure function of (seed, worker, steal_index),
/// mapped over the P-1 other workers. This is the whole determinism
/// contract of the steal schedule (docs/PARALLEL.md).
std::uint64_t pick_victim(std::uint64_t seed, std::uint64_t worker,
                          std::uint64_t steal_index, std::uint64_t workers) {
  const std::uint64_t h = util::hash_combine(
      util::hash_combine(seed, worker), steal_index);
  std::uint64_t victim = h % (workers - 1);
  if (victim >= worker) ++victim;
  return victim;
}

/// A unit of recursion-tree work: a whole subtree (size > 0, a problem of
/// `size` blocks) or one node's scan (size == 0, `scan_units` accesses).
/// The pre-split and the split-on-steal rule both preserve
///   U(m) = a * U(m/b) + scan(m),
/// so Σ task units over all live tasks always equals the units the whole
/// problem still owes — the conservation invariant the tests assert.
struct Task {
  std::uint64_t size = 0;
  std::uint64_t scan_units = 0;
  std::uint64_t node_hash = 0;
};

class ParallelEngine {
 public:
  ParallelEngine(const model::RegularParams& params, std::uint64_t n,
                 profile::BoxSource& source, const ParallelOptions& options)
      : params_(params),
        n_(n),
        source_(source),
        opt_(options),
        p_(opt_.workers == 0 ? 1 : opt_.workers),
        acc_(params, n) {}

  ParallelResult run();

 private:
  struct Worker {
    std::unique_ptr<StealDeque<std::uint32_t>> deque;
    std::optional<engine::RegularExecution> exec;
    std::uint64_t scan_remaining = 0;
    /// Σ task_units over the tasks sitting in this worker's deque — the
    /// carve weight input, maintained exactly (pushes, pops, and steals
    /// all adjust it in the serial phases that perform them).
    std::uint64_t pending_deque_units = 0;
    std::uint64_t steal_index = 0;
    WorkerStats stats;
  };

  std::uint64_t task_units(const Task& t) const {
    return t.size == 0 ? t.scan_units : model::problem_units(params_, t.size);
  }

  bool has_current(const Worker& w) const {
    return w.exec.has_value() || w.scan_remaining > 0;
  }

  std::uint64_t current_remaining(const Worker& w) const {
    if (w.exec.has_value()) return w.exec->total_units() - w.exec->units_done();
    return w.scan_remaining;
  }

  void run_sequential();
  void build_tasks();
  void push_task(Worker& w, const Task& t);
  void activate(Worker& w, const Task& t);
  bool ensure_current(Worker& w);
  void consume_run_into(Worker& w, std::uint64_t s, std::uint64_t count);
  void steal_barrier();

  const model::RegularParams& params_;
  std::uint64_t n_;
  profile::BoxSource& source_;
  const ParallelOptions& opt_;
  std::uint64_t p_;
  model::AdaptivityAccumulator acc_;
  double unit_potential_ = 0;
  std::uint64_t total_units_ = 0;
  std::uint64_t remaining_units_ = 0;
  std::uint64_t split_depth_ = 0;
  std::vector<Task> tasks_;
  std::vector<Worker> workers_;
  ParallelResult result_;
};

/// workers = 1: the sequential engine, verbatim. The kRuns-granularity
/// recorder keeps the bulk path live (bit-identical RunResult by the
/// docs/PERF.md contract) while supplying the progress/scan split for
/// WorkerStats.
void ParallelEngine::run_sequential() {
  engine::RegularExecution exec(params_, n_, opt_.placement,
                                opt_.adversary_seed, opt_.semantics);
  obs::ExecRecorder recorder(nullptr, obs::BoxGranularity::kRuns);
  engine::RunOptions run_options;
  run_options.max_boxes = opt_.max_boxes;
  run_options.cancel = opt_.cancel;
  run_options.recorder = &recorder;
  result_.merged = engine::run_to_completion(exec, source_, run_options);
  result_.workers.resize(1);
  WorkerStats& stats = result_.workers[0];
  stats.boxes = result_.merged.boxes;
  stats.progress = recorder.total_progress();
  stats.scan_advance = recorder.total_scan_advance();
  stats.slice_blocks = recorder.sum_box_sizes();
  stats.tasks_run = 1;
  result_.rounds = result_.merged.boxes;
  result_.tasks_spawned = 1;
}

/// Cut the tree at depth d into a^d subtree tasks plus the a^j scan tasks
/// of the internal nodes above them (j < d), dealt round-robin. The task
/// list order is fixed (scans in level order, then subtrees), so the
/// initial deques — and everything downstream — are deterministic.
void ParallelEngine::build_tasks() {
  const std::uint64_t k = util::ilog(n_, params_.b);
  std::uint64_t want = opt_.split_depth == 0 ? k : opt_.split_depth;
  std::uint64_t depth = 0;
  std::uint64_t subtrees = 1;
  // Auto mode stops once a^d >= 4P (enough tasks that the tail of the
  // computation keeps every worker fed); either mode is capped at k and
  // at 2^16 subtree tasks.
  while (depth < std::min(want, k) &&
         subtrees <= (UINT64_C(1) << 16) / std::max<std::uint64_t>(
                                               params_.a, 2)) {
    if (opt_.split_depth == 0 && subtrees >= 4 * p_) break;
    subtrees *= params_.a;
    ++depth;
  }
  split_depth_ = depth;

  std::vector<std::uint64_t> hashes{util::hash_combine(0x7A5Cull, n_)};
  std::uint64_t size = n_;
  for (std::uint64_t level = 0; level < depth; ++level) {
    const std::uint64_t scan = params_.scan_size(size);
    if (scan > 0) {
      for (const std::uint64_t h : hashes) tasks_.push_back({0, scan, h});
    }
    std::vector<std::uint64_t> next;
    next.reserve(hashes.size() * params_.a);
    for (const std::uint64_t h : hashes) {
      for (std::uint64_t child = 0; child < params_.a; ++child) {
        next.push_back(util::hash_combine(h, child));
      }
    }
    hashes = std::move(next);
    size /= params_.b;
  }
  for (const std::uint64_t h : hashes) tasks_.push_back({size, 0, h});

  std::uint64_t sum = 0;
  for (const Task& t : tasks_) sum += task_units(t);
  CADAPT_CHECK_MSG(sum == total_units_,
                   "pre-split must conserve units: " << sum << " != "
                                                     << total_units_);

  const std::size_t capacity =
      tasks_.size() / p_ + 1 + static_cast<std::size_t>(params_.a) + 8;
  workers_.resize(p_);
  for (Worker& w : workers_) {
    w.deque = std::make_unique<StealDeque<std::uint32_t>>(capacity);
  }
  // Round-robin deal. Owners pop from the bottom, so each worker starts
  // on its LAST-dealt tasks — the subtrees; the level-order scans sit at
  // the top of the deques, where thieves take from.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    Worker& w = workers_[i % p_];
    w.deque->push(static_cast<std::uint32_t>(i));
    w.pending_deque_units += task_units(tasks_[i]);
  }
}

void ParallelEngine::push_task(Worker& w, const Task& t) {
  CADAPT_CHECK(tasks_.size() < UINT32_MAX);
  const std::uint32_t index = static_cast<std::uint32_t>(tasks_.size());
  tasks_.push_back(t);
  w.deque->push(index);
  w.pending_deque_units += task_units(t);
}

void ParallelEngine::activate(Worker& w, const Task& t) {
  if (t.size == 0) {
    w.scan_remaining = t.scan_units;
  } else {
    w.exec.emplace(params_, t.size, opt_.placement,
                   util::hash_combine(opt_.adversary_seed, t.node_hash),
                   opt_.semantics);
  }
  ++w.stats.tasks_run;
}

bool ParallelEngine::ensure_current(Worker& w) {
  if (has_current(w)) return true;
  if (const auto index = w.deque->pop()) {
    const Task t = tasks_[*index];
    w.pending_deque_units -= task_units(t);
    activate(w, t);
    return true;
  }
  return false;
}

/// Consume `count` boxes of size s into the worker's work, task after
/// task. Scan tasks advance min(s, remaining) per box (the §4 scan rule);
/// subtree tasks go through the sequential engine's bulk consume_run.
void ParallelEngine::consume_run_into(Worker& w, std::uint64_t s,
                                      std::uint64_t count) {
  while (count > 0) {
    if (!ensure_current(w)) {
      w.stats.idle_boxes += count;
      return;
    }
    if (w.scan_remaining > 0) {
      const std::uint64_t full = w.scan_remaining / s;
      if (count <= full) {
        const std::uint64_t advance = count * s;
        w.stats.boxes += count;
        w.stats.scan_advance += advance;
        w.scan_remaining -= advance;
        remaining_units_ -= advance;
        return;
      }
      const std::uint64_t tail = w.scan_remaining - full * s;
      const std::uint64_t used = full + (tail > 0 ? 1 : 0);
      w.stats.boxes += used;
      w.stats.scan_advance += w.scan_remaining;
      remaining_units_ -= w.scan_remaining;
      w.scan_remaining = 0;
      count -= used;
    } else {
      engine::RegularExecution& exec = *w.exec;
      const std::uint64_t boxes_before = exec.boxes_consumed();
      const std::uint64_t leaves_before = exec.leaves_done();
      const std::uint64_t units_before = exec.units_done();
      exec.consume_run(s, count);
      const std::uint64_t used = exec.boxes_consumed() - boxes_before;
      const std::uint64_t leaves = exec.leaves_done() - leaves_before;
      const std::uint64_t units = exec.units_done() - units_before;
      w.stats.boxes += used;
      w.stats.progress += leaves;
      w.stats.scan_advance += units - leaves;
      remaining_units_ -= units;
      count -= used;
      if (exec.done()) {
        w.exec.reset();
      } else {
        return;  // the run is exhausted (used == count by construction)
      }
    }
  }
}

/// Epoch barrier: workers with nothing left (no current task, empty
/// deque) steal, resolved serially in worker-index order. A stolen
/// subtree of size >= b is split into its a children plus the node's
/// scan task — the thief keeps child 0 and queues the rest, preserving
/// U(m) = a*U(m/b) + scan(m).
void ParallelEngine::steal_barrier() {
  for (std::uint64_t w = 0; w < p_; ++w) {
    Worker& self = workers_[w];
    if (has_current(self) || self.deque->size() > 0) continue;
    const std::uint64_t max_attempts = 2 * p_;
    for (std::uint64_t attempt = 0; attempt < max_attempts; ++attempt) {
      const std::uint64_t victim =
          pick_victim(opt_.seed, w, self.steal_index++, p_);
      const auto index = workers_[victim].deque->steal();
      if (!index) {
        ++self.stats.failed_steals;
        continue;
      }
      const Task t = tasks_[*index];
      workers_[victim].pending_deque_units -= task_units(t);
      ++self.stats.steals;
      if (t.size >= params_.b) {
        ++result_.splits;
        const std::uint64_t child_size = t.size / params_.b;
        const std::uint64_t scan = params_.scan_size(t.size);
        if (scan > 0) push_task(self, {0, scan, t.node_hash});
        for (std::uint64_t child = params_.a; child-- > 1;) {
          push_task(self,
                    {child_size, 0, util::hash_combine(t.node_hash, child)});
        }
        activate(self, {child_size, 0, util::hash_combine(t.node_hash, 0)});
      } else {
        activate(self, t);
      }
      break;
    }
  }
}

ParallelResult ParallelEngine::run() {
  CADAPT_CHECK(util::is_power_of(n_, params_.b));
  total_units_ = model::problem_units(params_, n_);
  if (p_ <= 1) {
    run_sequential();
    return std::move(result_);
  }
  remaining_units_ = total_units_;
  build_tasks();
  result_.split_depth = split_depth_;

  const std::uint64_t epoch_rounds =
      opt_.epoch_rounds == 0 ? 1 : opt_.epoch_rounds;
  std::uint64_t since_flush = 0;
  bool capped = false;
  std::vector<std::uint64_t> weights(p_);
  std::vector<std::uint64_t> slices;
  while (remaining_units_ > 0) {
    if (opt_.cancel != nullptr) opt_.cancel->poll();
    if (result_.rounds >= opt_.max_boxes) {
      capped = true;
      break;
    }
    const auto box = source_.next();
    if (!box) break;  // source exhausted
    const std::uint64_t m = *box;
    CADAPT_CHECK(m >= 1);
    ++result_.rounds;
    acc_.add_box(m);
    unit_potential_ += model::bounded_rho_units(params_, n_, m);

    bool flush = false;
    if (opt_.carve == Policy::kPeriodicFlush) {
      const std::uint64_t period =
          opt_.flush_period != 0 ? opt_.flush_period : epoch_rounds;
      if (++since_flush >= period) {
        since_flush = 0;
        flush = true;
      }
    }
    if (flush) {
      slices.assign(p_, 1);
    } else {
      for (std::uint64_t w = 0; w < p_; ++w) {
        weights[w] = 1 + workers_[w].pending_deque_units +
                     current_remaining(workers_[w]);
      }
      slices = carve_slices(opt_.carve, m, weights);
    }

    // One global box of m blocks lasts m steps (square boxes): a worker
    // holding s of them sees the inner-square run (s, m/s) + remainder.
    for (std::uint64_t w = 0; w < p_; ++w) {
      const std::uint64_t s = slices[w];
      workers_[w].stats.slice_blocks += s;
      const SliceRun run = slice_run(s, m);
      if (run.count > 0) consume_run_into(workers_[w], run.size, run.count);
      if (run.remainder > 0) consume_run_into(workers_[w], run.remainder, 1);
    }

    if (result_.rounds % epoch_rounds == 0 && remaining_units_ > 0) {
      ++result_.epochs;
      steal_barrier();
    }
  }

  result_.workers.resize(p_);
  engine::RunResult& merged = result_.merged;
  for (std::uint64_t w = 0; w < p_; ++w) {
    result_.workers[w] = workers_[w].stats;
    result_.steals += workers_[w].stats.steals;
    result_.failed_steals += workers_[w].stats.failed_steals;
    merged.leaves += workers_[w].stats.progress;
  }
  merged.completed = remaining_units_ == 0;
  merged.stop = merged.completed ? engine::StopReason::kCompleted
                : capped         ? engine::StopReason::kBoxCapHit
                                 : engine::StopReason::kSourceExhausted;
  merged.boxes = result_.rounds;
  merged.sum_bounded_potential = acc_.sum_bounded_potential();
  merged.ratio = acc_.ratio();
  merged.unit_ratio =
      unit_potential_ / static_cast<double>(total_units_);
  result_.tasks_spawned = tasks_.size();
  return std::move(result_);
}

}  // namespace

ParallelResult parallel_run_to_completion(const model::RegularParams& params,
                                          std::uint64_t n,
                                          profile::BoxSource& source,
                                          const ParallelOptions& options) {
  params.validate();
  ParallelEngine engine(params, n, source, options);
  return engine.run();
}

std::vector<std::uint64_t> carve_slices(
    Policy policy, std::uint64_t box,
    std::span<const std::uint64_t> weights) {
  const std::size_t p = weights.size();
  CADAPT_CHECK(p >= 1);
  CADAPT_CHECK(box >= 1);
  std::vector<std::uint64_t> slices(p, 0);
  if (policy == Policy::kStaticEqual || p == 1) {
    const std::uint64_t quota = box / p;
    const std::uint64_t rest = box % p;
    for (std::size_t i = 0; i < p; ++i) {
      slices[i] = quota + (i < rest ? 1 : 0);
    }
  } else {
    // Proportional shares by the largest-remainder method — exact integer
    // arithmetic (128-bit products), remainder ties to the lower index,
    // so the carve is a pure function of (box, weights).
    unsigned __int128 total = 0;
    for (const std::uint64_t w : weights) {
      total += w < 1 ? 1 : w;
    }
    std::uint64_t assigned = 0;
    std::vector<std::pair<unsigned __int128, std::size_t>> remainders(p);
    for (std::size_t i = 0; i < p; ++i) {
      const std::uint64_t w = weights[i] < 1 ? 1 : weights[i];
      const unsigned __int128 product =
          static_cast<unsigned __int128>(box) * w;
      slices[i] = static_cast<std::uint64_t>(product / total);
      remainders[i] = {product % total, i};
      assigned += slices[i];
    }
    std::uint64_t leftover = box - assigned;
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& lhs, const auto& rhs) {
                if (lhs.first != rhs.first) return lhs.first > rhs.first;
                return lhs.second < rhs.second;
              });
    for (std::size_t j = 0; j < p && leftover > 0; ++j, --leftover) {
      ++slices[remainders[j].second];
    }
  }
  for (std::uint64_t& s : slices) {
    if (s == 0) s = 1;
  }
  return slices;
}

SliceRun slice_run(std::uint64_t slice, std::uint64_t length) {
  CADAPT_CHECK(slice >= 1);
  return {slice, length / slice, length % slice};
}

}  // namespace cadapt::sched

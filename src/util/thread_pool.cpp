#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace cadapt::util {

namespace {

std::string aggregate_what(const std::vector<std::string>& messages) {
  std::string what =
      std::to_string(messages.size()) + " pool tasks failed: ";
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (i != 0) what += "; ";
    what += messages[i];
  }
  return what;
}

}  // namespace

AggregateError::AggregateError(std::vector<std::string> messages)
    : std::runtime_error(aggregate_what(messages)),
      messages_(std::move(messages)) {}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  CADAPT_CHECK(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    CADAPT_CHECK_MSG(!stopping_, "submit() on a stopping pool");
    tasks_.emplace(next_task_index_++, std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
  if (task_errors_.empty()) return;
  auto errors = std::exchange(task_errors_, {});
  lock.unlock();
  // Submit order, not completion order: the report must not depend on
  // which worker lost the race.
  std::sort(errors.begin(), errors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (errors.size() == 1) std::rethrow_exception(errors.front().second);
  std::vector<std::string> messages;
  messages.reserve(errors.size());
  for (const auto& [index, error] : errors) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      messages.push_back("task " + std::to_string(index) + ": " + e.what());
    } catch (...) {
      messages.push_back("task " + std::to_string(index) +
                         ": non-std::exception");
    }
  }
  throw AggregateError(std::move(messages));
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::uint64_t index = 0;
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      index = tasks_.front().first;
      task = std::move(tasks_.front().second);
      tasks_.pop();
      ++active_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      // An escaped exception must not unwind a worker thread (that is
      // std::terminate); park it for the next wait_idle() instead.
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      // Moved, not copied: the worker keeps no reference to release
      // after the unlock, when wait_idle may already own the error.
      if (error) task_errors_.emplace_back(index, std::move(error));
      --active_;
      if (tasks_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::mutex error_mutex;
  const std::size_t workers = std::min(pool.size(), count);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          // Keep the lowest-index failure: deterministic across pool
          // sizes, where first-to-arrive is not.
          if (i < error_index) {
            error = std::current_exception();
            error_index = i;
          }
        }
      }
    });
  }
  pool.wait_idle();
  if (error) std::rethrow_exception(error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace cadapt::util

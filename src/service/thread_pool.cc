#include "src/service/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace txml {
namespace {

/// The claim state of one ForEach call, owned jointly by the caller and
/// its queued helpers, so a helper that runs after the caller returned
/// still finds it alive. `fn` is called only for a claimed index, and the
/// caller returns only once every index has finished: a late helper never
/// reaches it.
struct ForEachRun {
  ForEachRun(size_t n, const std::function<void(size_t)>* fn)
      : n(n), fn(fn) {}

  /// Claims and runs indices until none is left.
  void Drain() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(i);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        done.notify_all();
      }
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
};

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  cv_.SignalAll();
  for (Thread& worker : workers_) worker.Join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.Signal();
}

bool ThreadPool::TrySubmit(std::function<void()> task, size_t max_pending) {
  {
    MutexLock lock(mu_);
    if (max_pending > 0 && queue_.size() >= max_pending) return false;
    queue_.push_back(std::move(task));
  }
  cv_.Signal();
  return true;
}

void ThreadPool::FanOut(size_t n, const std::function<void(size_t)>& fn) {
  auto run = std::make_shared<ForEachRun>(n, &fn);
  const size_t helpers = std::min(n - 1, workers_.size());
  {
    MutexLock lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.push_back([run] { run->Drain(); });
    }
  }
  if (helpers == workers_.size()) {
    cv_.SignalAll();
  } else {
    for (size_t h = 0; h < helpers; ++h) cv_.Signal();
  }
  run->Drain();
  // Indices the helpers claimed may still be running; the acquire load
  // that sees the last of them makes their effects visible here.
  for (size_t done = run->done.load(std::memory_order_acquire); done < n;
       done = run->done.load(std::memory_order_acquire)) {
    run->done.wait(done, std::memory_order_acquire);
  }
}

size_t ThreadPool::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace txml

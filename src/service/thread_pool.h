#ifndef TXML_SRC_SERVICE_THREAD_POOL_H_
#define TXML_SRC_SERVICE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "src/util/synchronization.h"
#include "src/util/thread.h"

namespace txml {

/// A bounded worker pool: fixed thread count, FIFO task queue. Tasks are
/// type-erased thunks. The destructor drains the queue — every submitted
/// task runs — then joins.
///
/// The queue lock is held only around a push or a pop, never while a task
/// runs, so a thread holding commit stripes may submit (DESIGN.md §16).
class ThreadPool {
 public:
  /// `threads` = 0 falls back to 1 (a pool that executes nothing would
  /// never run a submitted task).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; wakes one worker. Must not be called during/after
  /// destruction.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Bounded enqueue: refuses (returns false, task not queued) when
  /// `max_pending` tasks are already waiting, instead of letting the
  /// backlog grow without limit. `max_pending` == 0 means unbounded
  /// (identical to Submit). Running tasks do not count — the bound is on
  /// queued work only, so a pool with free workers always accepts.
  [[nodiscard]] bool TrySubmit(std::function<void()> task,
                               size_t max_pending) EXCLUDES(mu_);

  /// Runs fn(0) … fn(n - 1), each exactly once, and returns when all have
  /// returned; their effects are visible to the caller then. The calling
  /// thread claims indices alongside up to thread_count() queued helpers,
  /// so the call finishes even when every worker is busy or when it runs
  /// on a worker itself. A helper that starts after the last index was
  /// claimed returns at once and touches nothing of the caller's. n <= 1
  /// runs inline on the calling thread and never touches the queue. `fn`
  /// must be safe to call concurrently for different indices.
  template <typename Fn>
  void ForEach(size_t n, Fn&& fn) EXCLUDES(mu_) {
    if (n > 1) {
      FanOut(n, fn);
    } else if (n == 1) {
      fn(size_t{0});
    }
  }

  size_t thread_count() const { return workers_.size(); }

  /// Tasks currently queued (excluding running ones); monitoring only.
  size_t queue_depth() const EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  /// ForEach for n > 1: queues the helpers and claims work alongside.
  void FanOut(size_t n, const std::function<void(size_t)>& fn) EXCLUDES(mu_);

  mutable Mutex mu_{LockRank::kThreadPool};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::vector<Thread> workers_;
};

}  // namespace txml

#endif  // TXML_SRC_SERVICE_THREAD_POOL_H_

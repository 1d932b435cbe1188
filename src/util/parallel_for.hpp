#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace giph::util {

/// Number of worker threads a `threads` request resolves to: values >= 1 are
/// taken as-is, and <= 0 means "one per hardware thread" (at least 1).
int resolve_threads(int threads);

/// Runs body(i) for i in [0, count) across up to `threads` worker threads
/// (<= 0 = hardware concurrency). Indices are handed out dynamically (atomic
/// counter), so the mapping of index to thread is nondeterministic — the body
/// must write only to per-index state (e.g. slot i of a results vector) for
/// the overall result to be independent of the thread count. With threads
/// resolving to 1, or count <= 1, everything runs inline on the caller's
/// thread. This is the library's one counted fan-out (training batches
/// included); WorkerPool below serves only queued tasks.
///
/// Exceptions thrown by the body are captured; the first one (lowest index)
/// is rethrown on the caller's thread after all workers have joined.
void parallel_for(int count, int threads, const std::function<void(int)>& body);

/// A pool of persistent worker threads draining a FIFO task queue, for
/// streaming workloads (the serving daemon) where tasks arrive one at a time
/// instead of as a counted fan-out. Each task receives its worker slot id
/// (stable across the pool's lifetime, in [0, threads())), which lets callers
/// attach per-worker state (arenas, policy clones) without locking.
class WorkerPool {
 public:
  /// Spawns threads-1 persistent workers (<= 0 = hardware concurrency).
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const noexcept { return threads_; }

  /// Enqueues `task`; a background worker eventually executes task(worker).
  /// With threads() == 1 there are no background workers, so the task runs
  /// inline on the submitting thread (as worker 0) before submit() returns.
  /// Throws std::runtime_error once the pool has been stopped; try_submit()
  /// returns false instead. An accepted task is guaranteed to execute exactly
  /// once, even when stop_and_drain() races the submit. Both may be called
  /// concurrently from any number of threads.
  void submit(std::function<void(int worker)> task);
  bool try_submit(std::function<void(int worker)> task);

  /// Stops admission (subsequent submits fail) and blocks until every
  /// accepted task has finished. Exceptions escaping a task are captured at
  /// execution time without wedging the pool — the remaining tasks still
  /// run — and the first captured one is rethrown here (then cleared).
  /// Idempotent; also invoked by the destructor, which swallows the rethrow.
  void stop_and_drain();

  /// Tasks accepted but not yet finished (queued + in flight). Admission
  /// control for callers that shed load above a depth budget.
  int pending_tasks() const;

 private:
  void worker_loop(int worker);
  void run_one_queued(int worker, std::unique_lock<std::mutex>& lock);

  int threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< a task arrived, or shutdown
  std::condition_variable idle_cv_;  ///< queue empty and nothing in flight
  bool shutdown_ = false;
  bool accepting_ = true;  ///< false once stop_and_drain() begins

  std::deque<std::function<void(int)>> queue_;  ///< submitted tasks (under mu_)
  int tasks_in_flight_ = 0;         ///< queued tasks currently executing
  std::exception_ptr task_error_;   ///< first exception from a queued task
};

}  // namespace giph::util

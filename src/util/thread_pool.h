#ifndef FAE_UTIL_THREAD_POOL_H_
#define FAE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fae {

/// Fixed-size worker pool. Tasks are arbitrary std::function<void()>; the
/// pool is drained and joined on destruction.
///
/// The input-processor phase of FAE (paper §III-B, Fig 11) parallelizes the
/// hot/cold classification of sparse inputs across cores through this pool,
/// and the compute kernels (GEMM, embedding bag, sparse optimizers) share
/// one trainer-owned pool through ParallelFor.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Schedule(std::function<void()> task);

  /// Blocks until every scheduled task has finished (pool-global; see
  /// ParallelFor for per-call completion).
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Splits [0, n) into roughly equal contiguous chunks, runs
  /// `fn(begin, end)` for each chunk, and waits for *this call's* chunks
  /// only — concurrent ParallelFor calls from different threads track
  /// completion independently and never block on each other's tasks. The
  /// calling thread executes the first chunk inline, so a single-thread
  /// pool degenerates to a plain loop and the caller can never deadlock
  /// waiting on a fully busy pool.
  ///
  /// Exception safety: if any chunk throws, the first exception is
  /// captured and rethrown on the calling thread after every chunk of this
  /// call has finished (remaining chunks still run; the range is always
  /// either fully attempted or the process state is unwound by the
  /// rethrow).
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace fae

#endif  // FAE_UTIL_THREAD_POOL_H_

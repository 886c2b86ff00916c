#ifndef OODGNN_UTIL_THREAD_POOL_H_
#define OODGNN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace oodgnn {

/// Fixed pool of worker threads executing statically partitioned index
/// ranges. The partition of [0, n) depends only on n and the pool size,
/// never on timing, so any kernel whose chunks own disjoint output rows
/// produces bitwise-identical results on every run and thread count.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread participates
  /// as worker 0). `num_threads < 1` is clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. Must not be called while a ParallelFor is live.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Splits [0, n) into `num_threads()` contiguous chunks and runs
  /// fn(begin, end) for every non-empty chunk, blocking until all are
  /// done. Chunk i runs on worker i; chunk 0 runs on the caller.
  /// Reentrant calls from inside a worker run the whole range inline
  /// (no nested parallelism), so kernels may freely compose. Safe to
  /// call concurrently from several external threads (the serving
  /// path): one caller at a time dispatches to the pool, everyone else
  /// runs their range inline — results are bitwise identical either
  /// way, because chunking never changes a kernel's arithmetic.
  void ParallelFor(int n, const std::function<void(int, int)>& fn);

  /// Contiguous chunk `index` of `chunks` over [0, n).
  static std::pair<int, int> Chunk(int n, int chunks, int index) {
    const long lo = static_cast<long>(n) * index / chunks;
    const long hi = static_cast<long>(n) * (index + 1) / chunks;
    return {static_cast<int>(lo), static_cast<int>(hi)};
  }

 private:
  void WorkerLoop(int worker_index);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, int)>* job_ = nullptr;  // guarded by mu_
  int job_n_ = 0;                                       // guarded by mu_
  long generation_ = 0;                                 // guarded by mu_
  int pending_ = 0;                                     // guarded by mu_
  bool shutdown_ = false;                               // guarded by mu_
  // Held by the one external thread currently dispatching to the pool.
  // Other external callers fail the try_lock and run inline; the
  // dispatcher's own re-entry from chunk 0 is caught by a thread-local
  // flag (try_lock on an owned std::mutex is undefined).
  std::mutex dispatch_mu_;
};

}  // namespace oodgnn

#endif  // OODGNN_UTIL_THREAD_POOL_H_

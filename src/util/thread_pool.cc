#include "src/util/thread_pool.h"

#include <algorithm>

namespace oodgnn {
namespace {

thread_local bool tls_in_worker = false;

/// Set while a thread owns a pool's dispatch lock, so its own chunk-0
/// callback re-entering ParallelFor runs inline instead of retrying the
/// lock it already holds.
thread_local bool tls_dispatching = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this, i);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_in_worker = true;
  long seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const std::function<void(int, int)>* fn = job_;
    const int n = job_n_;
    lock.unlock();
    const auto [begin, end] = Chunk(n, num_threads_, worker_index);
    if (begin < end) (*fn)(begin, end);
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int, int)>& fn) {
  if (n <= 0) return;
  if (num_threads_ == 1 || tls_in_worker || tls_dispatching ||
      !dispatch_mu_.try_lock()) {
    // Serial pool, nested call, or the pool is already dispatching for
    // another thread: run the whole range inline. Same arithmetic,
    // same result — only the partition differs.
    fn(0, n);
    return;
  }
  tls_dispatching = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_n_ = n;
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  const auto [begin, end] = Chunk(n, num_threads_, 0);
  if (begin < end) fn(begin, end);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
  }
  tls_dispatching = false;
  dispatch_mu_.unlock();
}

}  // namespace oodgnn

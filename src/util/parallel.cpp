#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>

namespace uesr::util {

namespace {

/// The pool whose run() is currently executing on this thread, if any.
/// Lets a nested run() on the same pool fall back to an inline call
/// instead of deadlocking on its own busy workers.
thread_local const ThreadPool* t_active_pool = nullptr;

struct ActivePoolScope {
  const ThreadPool* prev;
  explicit ActivePoolScope(const ThreadPool* p) : prev(t_active_pool) {
    t_active_pool = p;
  }
  ~ActivePoolScope() { t_active_pool = prev; }
};

}  // namespace

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  if (const char* env = std::getenv("UESR_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0)
      return std::min(static_cast<unsigned>(v), kMaxThreads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) : lanes_(resolve_threads(threads)) {
  workers_.reserve(lanes_ - 1);
  for (unsigned lane = 1; lane < lanes_; ++lane)
    workers_.emplace_back([this, lane] { worker_main(lane); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main(unsigned lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    {
      ActivePoolScope scope(this);
      try {
        (*job)(lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m_);
        if (!error_) error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(m_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run(const std::function<void(unsigned)>& fn) {
  if (lanes_ == 1 || t_active_pool == this) {
    // Serial pool, or a nested run from one of our own jobs: inline call.
    fn(0);
    return;
  }
  // Serialize concurrent external callers (e.g. two application threads
  // both defaulting to shared_pool()): the second dispatch waits for the
  // first to drain instead of clobbering job_/remaining_/generation_.
  // The nested-run inline path above never reaches this lock.
  std::lock_guard<std::mutex> run_lock(run_m_);
  {
    std::lock_guard<std::mutex> lock(m_);
    job_ = &fn;
    error_ = nullptr;
    remaining_ = lanes_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  std::exception_ptr caller_error;
  {
    ActivePoolScope scope(this);
    try {
      fn(0);
    } catch (...) {
      caller_error = std::current_exception();
    }
  }
  std::unique_lock<std::mutex> lock(m_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  if (caller_error && !error_) error_ = caller_error;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);
  return pool;
}

std::uint64_t default_chunk(std::uint64_t n, unsigned threads,
                            std::uint64_t min_chunk) {
  const std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(threads) * 8);
  return std::max<std::uint64_t>(std::max<std::uint64_t>(min_chunk, 1),
                                 (n + target - 1) / target);
}

void parallel_for(ThreadPool& pool, std::uint64_t n, std::uint64_t chunk,
                  const std::function<void(const ChunkRange&)>& body) {
  const std::uint64_t chunks = chunk_count(n, chunk);
  if (chunks == 0) return;  // no work: do not wake the pool
  std::atomic<std::uint64_t> next{0};
  pool.run([&](unsigned) {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks) return;
      body({i, i * chunk, std::min(n, (i + 1) * chunk)});
    }
  });
}

}  // namespace uesr::util

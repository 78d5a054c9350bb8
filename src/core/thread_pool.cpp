#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "geo/contract.hpp"
#include "obs/obs.hpp"

namespace skyran::core {

namespace {

/// True while this thread runs chunks of a parallel run_chunks call, as its
/// caller or as a helper. A loop started from there runs inline.
thread_local bool tl_in_pool_body = false;

std::size_t resolve_grain(std::size_t n, std::size_t grain) {
  return grain == 0 ? ThreadPool::default_grain(n) : grain;
}

/// Runs every chunk on the calling thread, in chunk order.
void run_inline(std::size_t n, std::size_t grain, const ChunkBody& body) {
  const std::size_t chunks = (n + grain - 1) / grain;
  SKYRAN_COUNTER_INC("core.pool.runs_inline");
  SKYRAN_COUNTER_ADD("core.pool.chunks", chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * grain;
    body(c, begin, std::min(n, begin + grain));
  }
}

}  // namespace

ThreadPool::ThreadPool(int workers) : workers_(workers) {
  expects(workers >= 1, "ThreadPool: worker count must be >= 1");
  threads_.reserve(static_cast<std::size_t>(workers - 1));
  for (int i = 1; i < workers; ++i) threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

std::size_t ThreadPool::default_grain(std::size_t n) {
  // At most 64 chunks regardless of worker count: the determinism contract
  // requires chunk boundaries to be a function of n alone.
  return n == 0 ? 1 : (n + 63) / 64;
}

void ThreadPool::run_chunks(std::size_t n, std::size_t grain, const ChunkBody& body,
                            int max_lanes) {
  if (n == 0) return;
  grain = resolve_grain(n, grain);
  const std::size_t chunks = (n + grain - 1) / grain;

  const auto run_one = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    body(c, begin, end);
  };

  const std::size_t lanes =
      max_lanes >= 1 ? std::min<std::size_t>(static_cast<std::size_t>(max_lanes),
                                             static_cast<std::size_t>(workers_))
                     : static_cast<std::size_t>(workers_);
  if (tl_in_pool_body || threads_.empty() || chunks == 1 || lanes == 1) {
    run_inline(n, grain, body);
    return;
  }
  SKYRAN_COUNTER_INC("core.pool.runs_parallel");
  SKYRAN_COUNTER_ADD("core.pool.chunks", chunks);

  // Work claiming is dynamic (atomic counter) but the chunks themselves are
  // fixed, so which thread runs a chunk never changes its result.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::size_t chunks = 0;
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  shared->chunks = chunks;

  // Drivers claim chunks until none remain. A driver that arrives after the
  // range is exhausted touches only `shared` (kept alive by the shared_ptr),
  // never the caller's body reference, so the caller may return as soon as
  // every chunk is done even if queued drivers have not started. While a
  // driver runs, loops nested in the body run inline on its thread.
  const auto drive = [shared, run_one]() {
    tl_in_pool_body = true;
    for (;;) {
      const std::size_t c = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= shared->chunks) break;
      try {
        run_one(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(shared->mu);
        if (!shared->error) shared->error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(shared->mu);
        if (++shared->done == shared->chunks) shared->done_cv.notify_all();
      }
    }
    tl_in_pool_body = false;
  };

  // Capture the drive lambda by value in the queued jobs; run_one/body are
  // referenced only while chunks remain unclaimed, which the caller outlives
  // (it blocks below until done == chunks, and done only reaches chunks
  // after every claimable chunk was claimed).
  const std::size_t helpers =
      std::min({threads_.size(), chunks - 1, lanes - 1});
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < helpers; ++i) queue_.emplace_back(drive);
    // Queue depth after enqueue: >`helpers` means earlier loops' drivers are
    // still waiting for a worker — the pool is oversubscribed.
    SKYRAN_HISTOGRAM_OBSERVE("core.pool.queue_depth", queue_.size());
    SKYRAN_HISTOGRAM_OBSERVE("core.pool.helpers", helpers);
  }
  cv_.notify_all();

  drive();  // caller participates

  std::unique_lock<std::mutex> lk(shared->mu);
  shared->done_cv.wait(lk, [&] { return shared->done == shared->chunks; });
  if (shared->error) std::rethrow_exception(shared->error);
}

namespace {

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;
int g_explicit_workers = 0;
thread_local int tl_workers = 0;

}  // namespace

int hardware_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int configured_workers() {
  if (tl_workers > 0) return tl_workers;
  {
    std::lock_guard<std::mutex> lk(g_pool_mu);
    if (g_explicit_workers > 0) return g_explicit_workers;
  }
  if (const char* env = std::getenv("SKYRAN_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) return static_cast<int>(v);
  }
  return hardware_workers();
}

void set_global_workers(int workers) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_explicit_workers = workers > 0 ? workers : 0;
  // The pool is deliberately NOT reset here: loops in flight on other threads
  // hold a shared_ptr to it, and acquire_global_pool() only ever grows the
  // pool. A smaller count is enforced per call via the run_chunks lane cap.
}

ScopedWorkers::ScopedWorkers(int workers) : previous_(tl_workers) {
  if (workers > 0) tl_workers = workers;
}

ScopedWorkers::~ScopedWorkers() { tl_workers = previous_; }

std::shared_ptr<ThreadPool> acquire_global_pool() {
  const int want = configured_workers();
  std::lock_guard<std::mutex> lk(g_pool_mu);
  // Grow-only: replacing g_pool is safe because concurrent loops keep the old
  // pool alive through their own shared_ptr until they finish, and a pool
  // with more lanes than needed is capped per call, never shrunk.
  if (!g_pool || g_pool->worker_count() < want)
    g_pool = std::make_shared<ThreadPool>(want);
  return g_pool;
}

void parallel_for_chunks(std::size_t n, std::size_t grain, const ChunkBody& body) {
  // A nested loop needs neither the worker count nor the pool.
  if (tl_in_pool_body) {
    if (n > 0) run_inline(n, resolve_grain(n, grain), body);
    return;
  }
  const int lanes = configured_workers();
  acquire_global_pool()->run_chunks(n, grain, body, lanes);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_chunks(n, grain,
                      [&fn](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) fn(i);
                      });
}

}  // namespace skyran::core

// Reusable concurrency layer for the per-epoch hot paths (SRS correlation,
// REM interpolation, k-means sweeps, placement scoring). A fixed pool of
// worker threads executes index-chunked parallel loops with a determinism
// contract: chunk boundaries are a function of the range length only (never
// of the worker count), so a chunked reduction combines partial results in
// the same order no matter how many threads ran, and parallel output is
// bit-for-bit identical to serial output. Worker count resolves as
// ScopedWorkers (thread-local) > set_global_workers() > SKYRAN_THREADS env
// var > hardware concurrency; a count of 1 forces fully inline serial
// execution. Parallelism is one level deep: a loop nested in a parallel
// loop's body runs inline, so only the outermost fan-out uses the lanes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace skyran::core {

/// Body of a chunked loop: receives (chunk_index, begin, end) with
/// begin/end indices into the caller's range. Chunks are disjoint and cover
/// the range; chunk_index orders them (chunk c covers [c*grain, ...)).
using ChunkBody = std::function<void(std::size_t, std::size_t, std::size_t)>;

class ThreadPool {
 public:
  /// Pool with `workers` total execution lanes (the calling thread counts as
  /// one: `workers - 1` threads are spawned). workers == 1 spawns nothing
  /// and every run_chunks call executes inline, in chunk order.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return workers_; }

  /// Split [0, n) into ceil(n / grain) chunks and run `body` once per chunk.
  /// Blocks until every chunk completed; the calling thread participates.
  /// The first exception thrown by any chunk is rethrown here. grain == 0
  /// picks default_grain(n). `max_lanes` caps how many execution lanes this
  /// call may use (0 = all of the pool's lanes; 1 = inline serial) without
  /// resizing the pool — chunk boundaries never depend on it, so results are
  /// identical for any cap. A loop started from inside the body of a loop
  /// that runs on several lanes runs inline on the thread running that outer
  /// chunk, with the same chunk boundaries; a loop that runs inline (one
  /// chunk, one lane) leaves its body's nested loops free to fan out.
  void run_chunks(std::size_t n, std::size_t grain, const ChunkBody& body,
                  int max_lanes = 0);

  /// Deterministic chunking used when the caller does not pick a grain:
  /// at most 64 chunks, independent of the worker count.
  static std::size_t default_grain(std::size_t n);

 private:
  void worker_loop();

  int workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// std::thread::hardware_concurrency with a floor of 1.
int hardware_workers();

/// Worker count the next parallel_* call on the current thread will use:
/// ScopedWorkers (thread-local) override if alive, else the explicit global
/// override, else a positive integer SKYRAN_THREADS environment variable,
/// else hardware concurrency.
int configured_workers();

/// Override the process-wide worker count (tests, CLI plumbing). workers <= 0
/// clears the override back to auto. Safe to call at any time, even while
/// parallel work is in flight on other threads: the shared pool is never
/// destroyed from here (in-flight loops keep it alive via shared_ptr and it
/// only ever grows); the new count takes effect on the next parallel_* call.
void set_global_workers(int workers);

/// RAII thread-local worker-count override: parallel_* calls made from the
/// constructing thread while this object is alive use `workers` lanes
/// (1 forces inline serial execution). workers <= 0 leaves the resolution
/// chain untouched. Restores the previous thread-local value on destruction.
/// Lets a component (e.g. one SkyRan instance) honor its configured thread
/// count without mutating process-wide state out from under other instances.
class ScopedWorkers {
 public:
  explicit ScopedWorkers(int workers);
  ~ScopedWorkers();
  ScopedWorkers(const ScopedWorkers&) = delete;
  ScopedWorkers& operator=(const ScopedWorkers&) = delete;

 private:
  int previous_;
};

/// Process-wide pool, (re)built lazily so its lane count is at least
/// configured_workers(). The pool only grows — a request for fewer lanes is
/// served by the existing pool with a per-call cap — so a rebuild never
/// invalidates the pool another thread is running on; callers hold the
/// returned shared_ptr for the duration of their loop.
std::shared_ptr<ThreadPool> acquire_global_pool();

/// Chunked parallel loop over [0, n) on the global pool, using
/// configured_workers() lanes (inline when nested in a parallel loop body).
void parallel_for_chunks(std::size_t n, std::size_t grain, const ChunkBody& body);

/// Element-wise parallel loop over [0, n) on the global pool. `fn` must be
/// safe to run concurrently for distinct indices; iteration order within a
/// chunk is ascending.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// Deterministic parallel reduction: per_chunk(begin, end) -> T runs per
/// chunk in parallel, then partials are combined serially in chunk order
/// starting from `identity`. Because chunk boundaries depend only on n and
/// grain, the result is bit-for-bit independent of the worker count.
template <typename T, typename PerChunk, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, T identity, PerChunk&& per_chunk,
                  Combine&& combine) {
  static_assert(!std::is_same_v<T, bool>,
                "parallel_reduce<bool> is unsafe: std::vector<bool> packs bits, so "
                "concurrent per-chunk partial writes race on the shared word. "
                "Reduce over int (0/1) and compare to 0 instead.");
  if (n == 0) return identity;
  if (grain == 0) grain = ThreadPool::default_grain(n);
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<T> partial(chunks, identity);
  parallel_for_chunks(n, grain,
                      [&](std::size_t c, std::size_t begin, std::size_t end) {
                        partial[c] = per_chunk(begin, end);
                      });
  T acc = identity;
  for (std::size_t c = 0; c < chunks; ++c) acc = combine(acc, partial[c]);
  return acc;
}

}  // namespace skyran::core

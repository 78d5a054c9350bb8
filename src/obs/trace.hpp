// Scoped trace spans for the epoch pipeline: a TraceSpan measures the wall
// time between its construction and destruction and records one TraceEvent
// into the process-wide TraceJournal, tagged with the current epoch label,
// the recording thread, and the span's nesting depth on that thread. Span
// durations additionally feed the `span.<name>.us` histogram in the
// MetricsRegistry so the summary exporter can show timing stats without
// replaying the journal. All of it is inert (one relaxed atomic load) while
// obs::enabled() is false.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace skyran::obs {

/// One completed span. Times are microseconds since the journal's epoch
/// (process-wide steady-clock origin captured at first use).
struct TraceEvent {
  std::string name;
  int epoch = 0;             ///< current_epoch() when the span opened
  int depth = 0;             ///< nesting depth on the recording thread (0 = root)
  std::uint64_t thread_id = 0;  ///< hashed std::thread::id of the recorder
  double start_us = 0.0;
  double duration_us = 0.0;
};

/// Label spans with the epoch they belong to (SkyRan::run_epoch sets this;
/// 0 = outside any epoch). Process-wide: with several SkyRan instances
/// interleaving epochs on different threads the label reflects the most
/// recent setter — see docs/OBSERVABILITY.md, "Limitations".
void set_current_epoch(int epoch);
int current_epoch();

/// Bounded, thread-safe, in-memory journal of completed spans. Recording
/// beyond the capacity drops the event and counts it; clear() frees the
/// events and resets the drop count.
class TraceJournal {
 public:
  static constexpr std::size_t kCapacity = 1 << 18;

  static TraceJournal& instance();

  void record(TraceEvent event);
  std::vector<TraceEvent> events() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void clear();

  /// Microseconds elapsed since the journal's steady-clock origin.
  double now_us() const;

 private:
  TraceJournal();

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII scoped timer. Construct with a name (the obs macro passes a string
/// literal); destruction records the event. A span constructed while
/// instrumentation is disabled stays inert even if instrumentation is
/// enabled before it closes (and vice versa), so toggling mid-span never
/// produces a half-measured event.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_;
  int depth_ = 0;
  std::string name_;
  double start_us_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace skyran::obs

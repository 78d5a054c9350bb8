#include "obs/trace.hpp"

#include <functional>
#include <thread>

#include "obs/metrics.hpp"

namespace skyran::obs {

namespace {

std::atomic<int> g_current_epoch{0};
thread_local int tl_span_depth = 0;

std::uint64_t this_thread_id() {
  return static_cast<std::uint64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

void set_current_epoch(int epoch) { g_current_epoch.store(epoch, std::memory_order_relaxed); }
int current_epoch() { return g_current_epoch.load(std::memory_order_relaxed); }

TraceJournal::TraceJournal() : origin_(std::chrono::steady_clock::now()) {}

TraceJournal& TraceJournal::instance() {
  // Intentionally leaked, same as MetricsRegistry::instance(): spans and the
  // export path must stay valid during static destruction.
  static TraceJournal* journal = new TraceJournal();
  return *journal;
}

double TraceJournal::now_us() const {
  const std::chrono::duration<double, std::micro> dt =
      std::chrono::steady_clock::now() - origin_;
  return dt.count();
}

void TraceJournal::record(TraceEvent event) {
  std::lock_guard<std::mutex> lk(mu_);
  if (events_.size() >= kCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceJournal::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

void TraceJournal::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  events_.clear();
  events_.shrink_to_fit();
  dropped_.store(0, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(std::string_view name) : active_(enabled()) {
  if (!active_) return;
  name_ = name;
  depth_ = tl_span_depth++;
  start_ = std::chrono::steady_clock::now();
  start_us_ = TraceJournal::instance().now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  --tl_span_depth;
  const std::chrono::duration<double, std::micro> dt =
      std::chrono::steady_clock::now() - start_;
  TraceEvent e;
  e.name = name_;
  e.epoch = current_epoch();
  e.depth = depth_;
  e.thread_id = this_thread_id();
  e.start_us = start_us_;
  e.duration_us = dt.count();
  MetricsRegistry::instance().histogram("span." + name_ + ".us").observe(e.duration_us);
  TraceJournal::instance().record(std::move(e));
}

}  // namespace skyran::obs

#include "obs/metrics.hpp"

#include <cmath>

namespace skyran::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// fetch_add for atomic<double> via CAS: C++20 has the member, but a CAS
/// loop keeps us portable across older libstdc++ floating-point atomics.
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

int Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // zero, negatives, NaN -> underflow bucket
  const int e = std::ilogb(v);  // floor(log2(v)) for finite positive v
  const int b = e + kExponentOffset;
  if (b < 1) return 0;
  if (b > kBuckets - 1) return kBuckets - 1;
  return b;
}

double Histogram::bucket_lower_bound(int b) {
  if (b <= 0) return 0.0;
  return std::ldexp(1.0, b - kExponentOffset);
}

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (int b = 0; b < kBuckets; ++b)
    out[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const std::array<std::uint64_t, kBuckets> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the q-th observation (1-based, ceil), then walk the buckets.
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[static_cast<std::size_t>(b)];
    if (seen >= target) {
      // Geometric midpoint of the bucket (its width is a factor of two);
      // clamping to the observed extrema keeps the estimate inside the data.
      const double lo = bucket_lower_bound(b);
      double v = b == 0 ? min() : lo * std::sqrt(2.0);
      if (v < min()) v = min();
      if (v > max()) v = max();
      return v;
    }
  }
  return max();
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Intentionally leaked: telemetry may be dumped from destructors of other
  // statics (obs::EnvSession writes after main), so the registry must
  // outlive every static regardless of construction order.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.push_back({name, c->value()});
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.gauges.push_back({name, g->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot s;
    s.name = name;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.mean = h->mean();
    s.p50 = h->quantile(0.50);
    s.p90 = h->quantile(0.90);
    s.p99 = h->quantile(0.99);
    out.histograms.push_back(std::move(s));
  }
  return out;
}

}  // namespace skyran::obs

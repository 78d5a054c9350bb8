// Derived numbers of the benchmark: order statistics over step times, the
// tail-percentile rule, self time, ratios with an explicit base, and exact
// reads of span sums and counters from the obs registry. Header-only so the
// benchmark binary and its self-test share one definition.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 1]) of an ascending sample.
/// 0 for an empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// Percentiles the tail rule may pick, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
/// Samples that must lie beyond the reported tail percentile.
inline constexpr std::size_t kTailMinBeyond = 10;

struct Tail {
  double pct = 50.0;       ///< percentile reported
  double value = 0.0;      ///< the percentile of the sample
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples above the percentile's rank
};

/// Samples beyond percentile `pct` of an n-sample: floor(n * (1 - pct/100)).
inline std::size_t samples_beyond(std::size_t n, double pct) {
  return static_cast<std::size_t>(static_cast<double>(n) * (100.0 - pct) / 100.0 + 1e-9);
}

/// The highest ladder percentile with at least kTailMinBeyond samples beyond
/// it. With fewer than 2 * kTailMinBeyond samples no percentile qualifies
/// and the rule falls back to the median (beyond then records the shortfall).
inline double tail_pct(std::size_t n) {
  for (const double p : kTailLadder)
    if (samples_beyond(n, p) >= kTailMinBeyond) return p;
  return 50.0;
}

inline Tail tail_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.n = samples.size();
  t.pct = tail_pct(t.n);
  t.beyond = samples_beyond(t.n, t.pct);
  t.value = percentile_sorted(samples, t.pct / 100.0);
  return t;
}

/// num / base, 0 when the base is 0 (a layer that did no work).
inline double ratio(double num, double base) { return base == 0.0 ? 0.0 : num / base; }

/// Self time: an enclosing span's total minus what its child spans cover.
inline double self_time(double total, std::initializer_list<double> children) {
  double covered = 0.0;
  for (const double c : children) covered += c;
  return total - covered;
}

/// Exact reads from one obs::MetricsRegistry snapshot. Spans are read from
/// their `span.<name>.us` histogram's exact sum and count, never from the
/// log2-bucket quantiles. Missing names read as 0 (the layer did no work).
class RegistryView {
 public:
  explicit RegistryView(skyran::obs::MetricsSnapshot snap) : snap_(std::move(snap)) {}

  std::uint64_t counter(std::string_view name) const {
    for (const auto& c : snap_.counters)
      if (c.name == name) return c.value;
    return 0;
  }
  double gauge(std::string_view name) const {
    for (const auto& g : snap_.gauges)
      if (g.name == name) return g.value;
    return 0.0;
  }
  double histogram_sum(std::string_view name) const {
    const auto* h = find(name);
    return h ? h->sum : 0.0;
  }
  std::uint64_t histogram_count(std::string_view name) const {
    const auto* h = find(name);
    return h ? h->count : 0;
  }
  double histogram_mean(std::string_view name) const {
    return ratio(histogram_sum(name), static_cast<double>(histogram_count(name)));
  }
  /// Summed duration of every `span` span, in ms.
  double span_ms(std::string_view span) const { return histogram_sum(span_key(span)) / 1000.0; }
  std::uint64_t span_count(std::string_view span) const {
    return histogram_count(span_key(span));
  }

 private:
  static std::string span_key(std::string_view span) {
    return "span." + std::string(span) + ".us";
  }
  const skyran::obs::HistogramSnapshot* find(std::string_view name) const {
    for (const auto& h : snap_.histograms)
      if (h.name == name) return &h;
    return nullptr;
  }

  skyran::obs::MetricsSnapshot snap_;
};

}  // namespace perfbench

#include "geo/stats.hpp"

#include <algorithm>

#include "geo/contract.hpp"

namespace skyran::geo {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double percentile_sorted(std::span<const double> sorted, double p) {
  expects(p >= 0.0 && p <= 1.0, "percentile_sorted: p must be in [0,1]");
  if (sorted.empty()) return 0.0;  // explicit contract: empty sample -> 0.0
  const double pos = p * static_cast<double>(sorted.size() - 1);
  // pos >= 0, so truncation and std::floor agree; hi is clamped rather than
  // ceil'd so p == 1 stays exactly the max order statistic.
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile_inplace(std::span<double> xs, double p) {
  expects(!xs.empty(), "percentile_inplace: empty input");
  expects(p >= 0.0 && p <= 1.0, "percentile_inplace: p must be in [0,1]");
  // The same lo as percentile_sorted's. After nth_element everything past lo
  // is >= xs[lo], so their minimum, swapped to lo + 1, is the next order
  // statistic: the two slots percentile_sorted reads then hold what a full
  // sort would put there.
  const auto rank = static_cast<std::ptrdiff_t>(p * static_cast<double>(xs.size() - 1));
  const auto lo = xs.begin() + rank;
  std::nth_element(xs.begin(), lo, xs.end());
  if (lo + 1 != xs.end()) std::iter_swap(lo + 1, std::min_element(lo + 1, xs.end()));
  return percentile_sorted(xs, p);
}

double percentile(std::span<const double> xs, double p) {
  expects(!xs.empty(), "percentile: empty input");
  std::vector<double> copy(xs.begin(), xs.end());
  return percentile_inplace(copy, p);
}

double median(std::span<const double> xs) { return percentile(xs, 0.5); }

std::vector<CdfPoint> empirical_cdf(std::span<const double> xs, int resolution) {
  expects(!xs.empty(), "empirical_cdf: empty input");
  expects(resolution >= 2, "empirical_cdf: resolution must be >= 2");
  std::vector<CdfPoint> out;
  out.reserve(static_cast<std::size_t>(resolution));
  for (int i = 0; i < resolution; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(resolution - 1);
    out.push_back({percentile(xs, p), p});
  }
  return out;
}

}  // namespace skyran::geo

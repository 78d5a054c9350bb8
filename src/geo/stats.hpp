// Small statistics helpers shared by metrics and benches: median, arbitrary
// percentiles, mean, and empirical CDF extraction.
#pragma once

#include <span>
#include <vector>

namespace skyran::geo {

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const double> xs);

/// p-th percentile (p in [0,1]) of an ALREADY ASCENDING-SORTED sample, by
/// linear interpolation between order statistics. This is the one
/// percentile formula in the repo: `percentile_inplace` selects the two
/// order statistics it reads into place and delegates here.
///
/// Empty-input contract (explicit, pinned by tests/test_geo.cpp): an empty
/// sample yields 0.0. Aggregate-report assembly (e.g. lte::TrafficPlane
/// percentile fields) treats "no samples yet" as a zero statistic rather
/// than an error; callers for whom an empty sample is a logic bug should
/// use `percentile`, which throws. p outside [0,1] throws either way.
double percentile_sorted(std::span<const double> sorted, double p);

/// p-th percentile (p in [0,1]) of an unsorted sample, by selection instead
/// of a full sort: nth_element places the lower order statistic, and the
/// upper one is the minimum of what lies past it; equal to sorting and
/// calling percentile_sorted. Permutes `xs` (its values stay the same), so
/// successive calls on one buffer are fine. Throws ContractViolation for an
/// empty input or p out of range.
double percentile_inplace(std::span<double> xs, double p);

/// percentile_inplace on a copy of `xs`. Throws ContractViolation for an
/// empty input or p out of range.
double percentile(std::span<const double> xs, double p);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double probability = 0.0;
};

/// Empirical CDF sampled at `resolution` evenly spaced probabilities
/// (inclusive of 0 and 1). Throws for empty input.
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs, int resolution = 20);

}  // namespace skyran::geo

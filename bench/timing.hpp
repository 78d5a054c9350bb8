// Median and spread of a micro bench's repeated timings, as the JSON-line
// benches report them (`*_ms` medians with an `*iqr_frac`).
#pragma once

#include <algorithm>
#include <vector>

#include "geo/stats.hpp"

namespace skyran::bench {

struct Timing {
  double median_ms = 0.0;
  double iqr_frac = 0.0;  ///< (q3 - q1) / median
};

/// The median of `ms` and its interquartile range over that median.
inline Timing median_iqr(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const double median = geo::percentile_sorted(ms, 0.5);
  return {median,
          (geo::percentile_sorted(ms, 0.75) - geo::percentile_sorted(ms, 0.25)) / median};
}

}  // namespace skyran::bench

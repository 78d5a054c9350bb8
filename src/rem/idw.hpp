// Inverse Distance Weighting interpolation over scattered samples on a grid
// (paper Sec 3.3.3, footnote 3: IDW chosen over kriging/GPR for its cost).
// Queries use a bucketed ring search so interpolating a full map stays fast.
#pragma once

#include <optional>
#include <vector>

#include "geo/grid.hpp"
#include "geo/vec.hpp"

namespace skyran::rem {

/// IDW interpolation parameters (paper uses inverse-square weighting). By
/// default interpolation uses the k nearest measurements regardless of
/// distance, so any measurement flight informs the whole map; a finite
/// `max_radius_m` makes far cells fall back to the model background instead.
struct IdwParams {
  int k_neighbors = 8;         ///< measured cells consulted per estimate
  double power = 2.0;          ///< inverse-distance exponent
  double max_radius_m = 1e9;   ///< beyond this, fall back to the background
  /// When the background came from a PRIOR REM (temporal aggregation,
  /// Sec 3.5), interpolation and background are blended with weight
  /// exp(-d / background_blend_m) on the interpolation, d being the distance
  /// to the nearest fresh measurement: fresh data wins nearby, the prior
  /// map wins far from this epoch's tour. Model (FSPL) backgrounds are NOT
  /// blended - they only fill in when nothing has been measured at all.
  double background_blend_m = 60.0;
};

/// Throws ContractViolation unless k_neighbors >= 1, power is finite and
/// positive, and max_radius_m and background_blend_m are >= 0 (infinity is
/// allowed, NaN is not).
void validate(const IdwParams& params);

struct IdwSample {
  geo::Vec2 position;
  double value = 0.0;
};

class IdwInterpolator {
 public:
  /// Build a spatial index over `samples` within `area`. `bucket_m` is the
  /// index cell size (search granularity, not the output grid).
  IdwInterpolator(std::vector<IdwSample> samples, geo::Rect area, double bucket_m = 16.0);

  /// IDW estimate at `p` from the `k` nearest samples within `max_radius_m`,
  /// weighting by distance^-power. nullopt when no sample is in range.
  std::optional<double> estimate(geo::Vec2 p, int k, double power, double max_radius_m) const;

  struct EstimateWithDistance {
    double value = 0.0;
    double nearest_m = 0.0;  ///< distance to the closest contributing sample
  };

  /// estimate() plus the distance to the closest contributing sample (the
  /// REM bank blends against a prior background with it).
  std::optional<EstimateWithDistance> estimate_with_distance(geo::Vec2 p, int k, double power,
                                                             double max_radius_m) const;

  /// Full-raster estimate over the interpolator's area: one estimate() per
  /// cell center, parallelized across cells on the global thread pool.
  /// Cells with no sample in range take `fallback`. Bit-for-bit identical
  /// for any worker count (cells are independent).
  geo::Grid2D<double> estimate_grid(double cell_size, int k, double power,
                                    double max_radius_m, double fallback = 0.0) const;

  struct Neighbor {
    int index = 0;       ///< into samples()
    double distance_m = 0.0;
  };

  /// The (at most) `k` nearest samples within `max_radius_m` of `p`, nearest
  /// first (bucketed ring search). Shared spatial index for every
  /// interpolator built on top. `max_radius_m` must be >= 0 (not NaN).
  std::vector<Neighbor> nearest(geo::Vec2 p, int k, double max_radius_m) const;

  const std::vector<IdwSample>& samples() const { return samples_; }
  std::size_t sample_count() const { return samples_.size(); }
  const geo::Rect& area() const { return buckets_.area(); }

 private:
  std::vector<IdwSample> samples_;
  geo::Grid2D<std::vector<int>> buckets_;
};

}  // namespace skyran::rem

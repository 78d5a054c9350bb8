#include "rem/idw.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geo/contract.hpp"
#include "kernels/kernels.hpp"
#include "rem/rasterize.hpp"

namespace skyran::rem {

IdwInterpolator::IdwInterpolator(std::vector<IdwSample> samples, geo::Rect area, double bucket_m)
    : samples_(std::move(samples)), buckets_(area, bucket_m) {
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const geo::Vec2 p = area.clamp(samples_[i].position);
    buckets_.value_at(p).push_back(static_cast<int>(i));
  }
}

std::optional<double> IdwInterpolator::estimate(geo::Vec2 p, int k, double power,
                                                double max_radius_m) const {
  expects(power > 0.0, "IdwInterpolator::estimate: power must be positive");
  const auto r = weigh(samples_, nearest(p, k, max_radius_m), power);
  if (!r) return std::nullopt;
  return r->value;
}

std::vector<IdwInterpolator::Neighbor> IdwInterpolator::nearest(geo::Vec2 p, int k,
                                                                double max_radius_m) const {
  return nearest_impl(p, k, max_radius_m, nullptr);
}

std::vector<IdwInterpolator::Neighbor> IdwInterpolator::nearest_impl(geo::Vec2 p, int k,
                                                                     double max_radius_m,
                                                                     int* rings_scanned) const {
  expects(k >= 1, "IdwInterpolator::nearest: k must be >= 1");
  std::vector<Neighbor> out;
  if (rings_scanned != nullptr) *rings_scanned = 0;
  if (samples_.empty()) return out;

  const geo::Vec2 q = buckets_.area().clamp(p);
  const geo::CellIndex center = buckets_.cell_of(q);
  // Never search more rings than the bucket grid spans (covers the
  // unbounded-radius configuration).
  const int grid_span = std::max(buckets_.nx(), buckets_.ny()) + 1;
  const int max_ring = static_cast<int>(std::min<double>(
      grid_span, std::ceil(max_radius_m / buckets_.cell_size()) + 1.0));

  struct Found {
    double dist2;
    int index;
  };
  std::vector<Found> found;

  // Ring search: expand square rings of buckets until we have k candidates
  // whose distance is certainly not beaten by unexplored rings.
  for (int ring = 0; ring <= max_ring; ++ring) {
    if (rings_scanned != nullptr) *rings_scanned = ring;
    for (int dy = -ring; dy <= ring; ++dy) {
      for (int dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;  // ring shell only
        const geo::CellIndex c{center.ix + dx, center.iy + dy};
        if (!buckets_.in_bounds(c)) continue;
        for (int idx : buckets_.at(c)) {
          const IdwSample& s = samples_[static_cast<std::size_t>(idx)];
          const double d2 = (s.position - p).norm2();
          if (d2 <= max_radius_m * max_radius_m) found.push_back({d2, idx});
        }
      }
    }
    if (static_cast<int>(found.size()) >= k) {
      // Any sample in a farther ring is at least (ring * bucket) away from
      // the query's bucket boundary; once the k-th best is closer, stop.
      std::nth_element(found.begin(), found.begin() + (k - 1), found.end(),
                       [](const Found& a, const Found& b) { return a.dist2 < b.dist2; });
      const double kth = std::sqrt(found[static_cast<std::size_t>(k - 1)].dist2);
      const double safe = ring * buckets_.cell_size();
      if (kth <= safe) break;
    }
  }
  const int use = std::min<int>(k, static_cast<int>(found.size()));
  std::partial_sort(found.begin(), found.begin() + use, found.end(),
                    [](const Found& a, const Found& b) { return a.dist2 < b.dist2; });
  out.reserve(static_cast<std::size_t>(use));
  for (int i = 0; i < use; ++i)
    out.push_back({found[static_cast<std::size_t>(i)].index,
                   std::sqrt(found[static_cast<std::size_t>(i)].dist2)});
  return out;
}

std::optional<IdwInterpolator::EstimateWithDistance> IdwInterpolator::weigh(
    const std::vector<IdwSample>& samples, const std::vector<Neighbor>& neighbors,
    double power) {
  if (neighbors.empty()) return std::nullopt;
  // Gather to SoA and hand the accumulation to the kernels layer. The
  // exact-hit shortcut keeps its historical first-in-order semantics: any
  // neighbor closer than 1e-6 m wins before any weight is accumulated.
  constexpr std::size_t kStack = 32;
  double dist_stack[kStack];
  double val_stack[kStack];
  std::vector<double> heap;
  double* dist = dist_stack;
  double* val = val_stack;
  if (neighbors.size() > kStack) {
    heap.resize(2 * neighbors.size());
    dist = heap.data();
    val = heap.data() + neighbors.size();
  }
  std::size_t n = 0;
  for (const Neighbor& nb : neighbors) {
    const double v = samples[static_cast<std::size_t>(nb.index)].value;
    if (nb.distance_m < 1e-6) return EstimateWithDistance{v, nb.distance_m};  // exact hit
    dist[n] = nb.distance_m;
    val[n] = v;
    ++n;
  }
  const kernels::IdwAccum acc = kernels::idw_weigh(dist, val, n, power);
  return EstimateWithDistance{acc.vsum / acc.wsum, neighbors.front().distance_m};
}

IdwInterpolator::InfluenceEstimate IdwInterpolator::estimate_with_influence(
    geo::Vec2 p, int k, double power, double max_radius_m) const {
  expects(power > 0.0, "IdwInterpolator::estimate: power must be positive");
  int rings = 0;
  InfluenceEstimate out;
  out.estimate = weigh(samples_, nearest_impl(p, k, max_radius_m, &rings), power);
  if (samples_.empty()) {
    // No scan happened: any future sample within max_radius_m can affect the
    // query (there was nothing to stop the ring search early).
    out.influence_m = max_radius_m;
    return out;
  }
  // Every candidate the search saw lives in a bucket within Chebyshev
  // distance `rings` of the (clamped) query's bucket, i.e. within
  // (rings + 1) * bucket * sqrt(2) meters of the clamped query (per-axis
  // separation is at most (rings + 1) buckets). Queries at partial edge
  // cells can sit slightly outside the area, so the clamp offset is added to
  // express the bound from the original point. A sample beyond that bound
  // was never scanned, and one beyond max_radius_m never enters the
  // candidate list, so the tighter of the two bounds the query. The small
  // epsilon absorbs floating-point slack in the caller's distance test;
  // widening the radius only ever over-marks.
  const geo::Vec2 q = buckets_.area().clamp(p);
  const double scanned_m = (rings + 1) * buckets_.cell_size() * std::numbers::sqrt2 +
                           (p - q).norm() + 1e-6;
  out.influence_m = std::min(scanned_m, max_radius_m);
  return out;
}

bool IdwInterpolator::any_within(geo::Vec2 p, double radius_m) const {
  if (samples_.empty() || radius_m < 0.0) return false;
  const geo::Vec2 q = buckets_.area().clamp(p);
  const geo::CellIndex center = buckets_.cell_of(q);
  const int grid_span = std::max(buckets_.nx(), buckets_.ny()) + 1;
  const int max_ring = static_cast<int>(std::min<double>(
      grid_span, std::ceil(radius_m / buckets_.cell_size()) + 1.0));
  const double r2 = radius_m * radius_m;
  for (int ring = 0; ring <= max_ring; ++ring) {
    for (int dy = -ring; dy <= ring; ++dy) {
      for (int dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;  // ring shell only
        const geo::CellIndex c{center.ix + dx, center.iy + dy};
        if (!buckets_.in_bounds(c)) continue;
        for (int idx : buckets_.at(c)) {
          if ((samples_[static_cast<std::size_t>(idx)].position - p).norm2() <= r2)
            return true;
        }
      }
    }
  }
  return false;
}

geo::Grid2D<double> IdwInterpolator::estimate_grid(double cell_size, int k, double power,
                                                   double max_radius_m,
                                                   double fallback) const {
  return rasterize_estimates(buckets_.area(), cell_size, fallback, [&](geo::Vec2 center) {
    return estimate(center, k, power, max_radius_m);
  });
}

}  // namespace skyran::rem

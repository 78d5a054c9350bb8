#include "rem/idw.hpp"

#include <algorithm>
#include <cmath>

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

void validate(const IdwParams& params) {
  expects(params.k_neighbors >= 1, "IdwParams: k_neighbors must be >= 1");
  expects(std::isfinite(params.power) && params.power > 0.0,
          "IdwParams: power must be finite and positive");
  expects(params.max_radius_m >= 0.0, "IdwParams: max_radius_m must be >= 0");
  expects(params.background_blend_m >= 0.0, "IdwParams: background_blend_m must be >= 0");
}

std::optional<double> IdwInterpolator::estimate(geo::Vec2 p, int k, double power,
                                                double max_radius_m) const {
  const auto r = estimate_with_distance(p, k, power, max_radius_m);
  if (!r) return std::nullopt;
  return r->value;
}

std::optional<IdwInterpolator::EstimateWithDistance> IdwInterpolator::estimate_with_distance(
    geo::Vec2 p, int k, double power, double max_radius_m) const {
  expects(power > 0.0, "IdwInterpolator::estimate: power must be positive");
  const std::vector<Neighbor> neighbors = nearest(p, k, max_radius_m);
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
    const double v = samples_[static_cast<std::size_t>(nb.index)].value;
    if (nb.distance_m < 1e-6) return EstimateWithDistance{v, nb.distance_m};  // exact hit
    dist[n] = nb.distance_m;
    val[n] = v;
    ++n;
  }
  const kernels::IdwAccum acc = kernels::idw_weigh(dist, val, n, power);
  return EstimateWithDistance{acc.vsum / acc.wsum, neighbors.front().distance_m};
}

std::vector<IdwInterpolator::Neighbor> IdwInterpolator::nearest(geo::Vec2 p, int k,
                                                                double max_radius_m) const {
  expects(k >= 1, "IdwInterpolator::nearest: k must be >= 1");
  expects(max_radius_m >= 0.0, "IdwInterpolator::nearest: max_radius_m must be >= 0");
  std::vector<Neighbor> out;
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

geo::Grid2D<double> IdwInterpolator::estimate_grid(double cell_size, int k, double power,
                                                   double max_radius_m,
                                                   double fallback) const {
  return rasterize_estimates(buckets_.area(), cell_size, fallback, [&](geo::Vec2 center) {
    return estimate(center, k, power, max_radius_m);
  });
}

}  // namespace skyran::rem

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
  Scratch scratch;
  return estimate_with_distance(p, k, power, max_radius_m, scratch);
}

std::optional<IdwInterpolator::EstimateWithDistance> IdwInterpolator::estimate_with_distance(
    geo::Vec2 p, int k, double power, double max_radius_m, Scratch& scratch) const {
  expects(power > 0.0, "IdwInterpolator::estimate: power must be positive");
  const std::size_t use = search(p, k, max_radius_m, scratch.found);
  if (use == 0) return std::nullopt;
  // Gather to SoA and hand the accumulation to the kernels layer. The
  // exact-hit shortcut keeps its historical first-in-order semantics: any
  // neighbor closer than 1e-6 m wins before any weight is accumulated.
  scratch.dist.resize(use);
  scratch.val.resize(use);
  for (std::size_t i = 0; i < use; ++i) {
    const Scratch::Candidate& c = scratch.found[i];
    const double d = std::sqrt(c.dist2);
    const double v = samples_[static_cast<std::size_t>(c.index)].value;
    if (d < 1e-6) return EstimateWithDistance{v, d};  // exact hit
    scratch.dist[i] = d;
    scratch.val[i] = v;
  }
  const kernels::IdwAccum acc =
      kernels::idw_weigh(scratch.dist.data(), scratch.val.data(), use, power);
  return EstimateWithDistance{acc.vsum / acc.wsum, scratch.dist[0]};
}

std::vector<IdwInterpolator::Neighbor> IdwInterpolator::nearest(geo::Vec2 p, int k,
                                                                double max_radius_m) const {
  std::vector<Scratch::Candidate> found;
  const std::size_t use = search(p, k, max_radius_m, found);
  std::vector<Neighbor> out;
  out.reserve(use);
  for (std::size_t i = 0; i < use; ++i) out.push_back({found[i].index, std::sqrt(found[i].dist2)});
  return out;
}

std::size_t IdwInterpolator::search(geo::Vec2 p, int k, double max_radius_m,
                                    std::vector<Scratch::Candidate>& found) const {
  expects(k >= 1, "IdwInterpolator::nearest: k must be >= 1");
  expects(max_radius_m >= 0.0, "IdwInterpolator::nearest: max_radius_m must be >= 0");
  found.clear();
  if (samples_.empty()) return 0;

  const geo::Vec2 q = buckets_.area().clamp(p);
  const geo::CellIndex center = buckets_.cell_of(q);
  // Never search more rings than the bucket grid spans (covers the
  // unbounded-radius configuration).
  const int grid_span = std::max(buckets_.nx(), buckets_.ny()) + 1;
  const int max_ring = static_cast<int>(std::min<double>(
      grid_span, std::ceil(max_radius_m / buckets_.cell_size()) + 1.0));
  const double max_d2 = max_radius_m * max_radius_m;
  const auto visit = [&](int dx, int dy) {
    for (const int idx : buckets_.at_unchecked({center.ix + dx, center.iy + dy})) {
      const IdwSample& s = samples_[static_cast<std::size_t>(idx)];
      const double d2 = (s.position - p).norm2();
      if (d2 <= max_d2) found.push_back({d2, idx});
    }
  };
  const auto by_distance = [](const Scratch::Candidate& a, const Scratch::Candidate& b) {
    return a.dist2 < b.dist2;
  };

  // Ring search: expand square rings of buckets until we have k candidates
  // whose distance is certainly not beaten by unexplored rings. Each ring
  // visits only its shell's in-bounds buckets, row by row (dy, then dx
  // ascending), so candidates arrive in the same order as a sweep of the
  // full square would give them; nth_element and partial_sort see the same
  // sequence, and distance ties resolve the same way.
  for (int ring = 0; ring <= max_ring; ++ring) {
    const int dx_lo = std::max(-ring, -center.ix);
    const int dx_hi = std::min(ring, buckets_.nx() - 1 - center.ix);
    const int dy_lo = std::max(-ring, -center.iy);
    const int dy_hi = std::min(ring, buckets_.ny() - 1 - center.iy);
    for (int dy = dy_lo; dy <= dy_hi; ++dy) {
      if (dy == -ring || dy == ring) {
        for (int dx = dx_lo; dx <= dx_hi; ++dx) visit(dx, dy);
      } else {
        if (dx_lo == -ring) visit(-ring, dy);
        if (dx_hi == ring) visit(ring, dy);
      }
    }
    if (static_cast<int>(found.size()) >= k) {
      // Any sample in a farther ring is at least (ring * bucket) away from
      // the query's bucket boundary; once the k-th best is closer, stop.
      std::nth_element(found.begin(), found.begin() + (k - 1), found.end(), by_distance);
      const double kth = std::sqrt(found[static_cast<std::size_t>(k - 1)].dist2);
      const double safe = ring * buckets_.cell_size();
      if (kth <= safe) break;
    }
  }
  const std::size_t use = std::min(static_cast<std::size_t>(k), found.size());
  std::partial_sort(found.begin(), found.begin() + static_cast<std::ptrdiff_t>(use), found.end(),
                    by_distance);
  return use;
}

geo::Grid2D<double> IdwInterpolator::estimate_grid(double cell_size, int k, double power,
                                                   double max_radius_m,
                                                   double fallback) const {
  return rasterize_estimates(buckets_.area(), cell_size, fallback, [&](geo::Vec2 center) {
    return estimate(center, k, power, max_radius_m);
  });
}

}  // namespace skyran::rem

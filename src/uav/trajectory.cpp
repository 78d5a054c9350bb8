#include "uav/trajectory.hpp"

#include <cmath>
#include <random>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"

namespace skyran::uav {

geo::Path zigzag(geo::Rect area, double spacing) {
  expects(spacing > 0.0, "zigzag: spacing must be positive");
  std::vector<geo::Vec2> pts;
  const int rows = std::max(1, static_cast<int>(std::ceil(area.height() / spacing)) + 1);
  for (int r = 0; r < rows; ++r) {
    const double y = std::min(area.min.y + r * spacing, area.max.y);
    if (r % 2 == 0) {
      pts.push_back({area.min.x, y});
      pts.push_back({area.max.x, y});
    } else {
      pts.push_back({area.max.x, y});
      pts.push_back({area.min.x, y});
    }
  }
  return geo::Path(std::move(pts));
}

geo::Path random_walk(geo::Rect area, geo::Vec2 start, double length_m, double leg_m,
                      std::uint64_t seed) {
  expects(length_m > 0.0, "random_walk: length must be positive");
  expects(leg_m > 0.0, "random_walk: leg length must be positive");
  expects(area.contains(start), "random_walk: start must lie inside the area");
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> heading(0.0, 2.0 * M_PI);

  std::vector<geo::Vec2> pts{start};
  double remaining = length_m;
  geo::Vec2 cur = start;
  while (remaining > 1e-9) {
    const double step = std::min(leg_m, remaining);
    // Retry headings until the leg stays inside the area; fall back to
    // aiming at the center when the corner traps us.
    geo::Vec2 next;
    bool ok = false;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const double h = heading(rng);
      next = cur + geo::Vec2{std::cos(h), std::sin(h)} * step;
      if (area.contains(next)) {
        ok = true;
        break;
      }
    }
    if (!ok) next = cur + (area.center() - cur).normalized() * step;
    pts.push_back(next);
    cur = next;
    remaining -= step;
  }
  return geo::Path(std::move(pts));
}

geo::Path truncate_to_budget(const geo::Path& path, double budget_m) {
  expects(budget_m >= 0.0, "truncate_to_budget: budget must be >= 0");
  if (path.size() < 2 || path.length() <= budget_m) return path;
  std::vector<geo::Vec2> pts;
  pts.push_back(path.points().front());
  double used = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const geo::Vec2 a = path.points()[i - 1];
    const geo::Vec2 b = path.points()[i];
    const double seg = a.dist(b);
    if (used + seg >= budget_m) {
      const double frac = seg > 0.0 ? (budget_m - used) / seg : 0.0;
      pts.push_back(a + (b - a) * frac);
      break;
    }
    pts.push_back(b);
    used += seg;
  }
  return geo::Path(std::move(pts));
}

}  // namespace skyran::uav

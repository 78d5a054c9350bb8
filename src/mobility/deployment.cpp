#include "mobility/deployment.hpp"

#include <random>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"

namespace skyran::mobility {

namespace {

geo::Vec3 draw_walkable(const terrain::Terrain& t, geo::Mt19937_64& rng, double margin_m) {
  const geo::Rect inner = t.area().inflated(-margin_m);
  expects(inner.width() > 0.0 && inner.height() > 0.0,
          "draw_walkable: margin leaves no usable area");
  std::uniform_real_distribution<double> ux(inner.min.x, inner.max.x);
  std::uniform_real_distribution<double> uy(inner.min.y, inner.max.y);
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const geo::Vec2 p{ux(rng), uy(rng)};
    if (t.clutter_at(p) != terrain::Clutter::kBuilding)
      return geo::Vec3{p, t.ground_height(p) + 1.5};  // handset at chest height
  }
  throw ContractViolation("draw_walkable: could not find walkable ground");
}

}  // namespace

geo::Vec3 random_walkable_position(const terrain::Terrain& t, std::uint64_t seed,
                                   double margin_m) {
  geo::Mt19937_64 rng(seed);
  return draw_walkable(t, rng, margin_m);
}

namespace {

/// True when any cell within `radius_m` of `p` carries clutter `kind`.
bool near_clutter(const terrain::Terrain& t, geo::Vec2 p, terrain::Clutter kind,
                  double radius_m) {
  const double step = std::max(1.0, t.cell_size());
  for (double dy = -radius_m; dy <= radius_m; dy += step)
    for (double dx = -radius_m; dx <= radius_m; dx += step)
      if (t.clutter_at(t.area().clamp(p + geo::Vec2{dx, dy})) == kind) return true;
  return false;
}

}  // namespace

std::vector<geo::Vec3> deploy_mixed_visibility(const terrain::Terrain& t, int count,
                                               std::uint64_t seed, double margin_m) {
  expects(count >= 1, "deploy_mixed_visibility: count must be >= 1");
  geo::Mt19937_64 rng(seed);
  std::vector<geo::Vec3> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int flavor = i % 3;  // 0 = beside building, 1 = in foliage, 2 = open
    geo::Vec3 pick;
    bool found = false;
    for (int attempt = 0; attempt < 2048 && !found; ++attempt) {
      const geo::Vec3 cand = draw_walkable(t, rng, margin_m);
      switch (flavor) {
        case 0:
          found = near_clutter(t, cand.xy(), terrain::Clutter::kBuilding, 8.0);
          break;
        case 1:
          found = t.clutter_at(cand.xy()) == terrain::Clutter::kFoliage ||
                  near_clutter(t, cand.xy(), terrain::Clutter::kFoliage, 4.0);
          break;
        default:
          found = !near_clutter(t, cand.xy(), terrain::Clutter::kBuilding, 15.0) &&
                  t.clutter_at(cand.xy()) == terrain::Clutter::kOpen;
          break;
      }
      if (found) pick = cand;
    }
    // Terrains lacking the requested feature fall back to any walkable spot.
    if (!found) pick = draw_walkable(t, rng, margin_m);
    out.push_back(pick);
  }
  return out;
}

std::vector<geo::Vec3> deploy_uniform(const terrain::Terrain& t, int count, std::uint64_t seed,
                                      double margin_m) {
  expects(count >= 1, "deploy_uniform: count must be >= 1");
  geo::Mt19937_64 rng(seed);
  std::vector<geo::Vec3> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(draw_walkable(t, rng, margin_m));
  return out;
}

std::vector<geo::Vec3> deploy_clustered(const terrain::Terrain& t, int count, int clusters,
                                        double cluster_radius_m, std::uint64_t seed,
                                        double margin_m) {
  expects(count >= 1, "deploy_clustered: count must be >= 1");
  expects(clusters >= 1, "deploy_clustered: clusters must be >= 1");
  expects(cluster_radius_m > 0.0, "deploy_clustered: radius must be positive");
  geo::Mt19937_64 rng(seed);

  std::vector<geo::Vec3> heads;
  heads.reserve(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c)
    heads.push_back(draw_walkable(t, rng, margin_m + cluster_radius_m));

  std::normal_distribution<double> spread(0.0, cluster_radius_m / 2.0);
  std::uniform_int_distribution<int> pick(0, clusters - 1);
  std::vector<geo::Vec3> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const geo::Vec3& head = heads[static_cast<std::size_t>(pick(rng))];
    for (int attempt = 0;; ++attempt) {
      const geo::Vec2 p = t.area().inflated(-margin_m).clamp(
          head.xy() + geo::Vec2{spread(rng), spread(rng)});
      if (t.clutter_at(p) != terrain::Clutter::kBuilding || attempt >= 64) {
        out.push_back(geo::Vec3{p, t.ground_height(p) + 1.5});
        break;
      }
    }
  }
  return out;
}

}  // namespace skyran::mobility

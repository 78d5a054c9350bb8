#include "rf/raytrace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/contract.hpp"

namespace skyran::rf {

namespace {

/// Steps per span of the march's skip test.
constexpr int kSpanSteps = 16;

/// A span is skipped only when it clears every ceiling by this much: absorbs
/// an ulp of difference should the compiler contract the span endpoints'
/// arithmetic differently from the loop's.
constexpr double kCeilingMarginM = 1e-9;

}  // namespace

SurfaceCeiling::SurfaceCeiling(const terrain::Terrain& t)
    : cells_nx_(t.cells().nx()),
      cells_ny_(t.cells().ny()),
      tiles_nx_((cells_nx_ + kTileCells - 1) / kTileCells) {
  const int tiles_ny = (cells_ny_ + kTileCells - 1) / kTileCells;
  top_.assign(static_cast<std::size_t>(tiles_nx_) * static_cast<std::size_t>(tiles_ny),
              -std::numeric_limits<double>::infinity());
  t.cells().for_each([&](geo::CellIndex c, const terrain::TerrainCell& cell) {
    double& top =
        top_[static_cast<std::size_t>(c.iy / kTileCells) * tiles_nx_ + c.ix / kTileCells];
    top = std::max(top, static_cast<double>(cell.ground));
    // Open and water cells never obstruct above ground, so the march only
    // compares heights with the clutter top of buildings and foliage.
    if (cell.clutter == terrain::Clutter::kBuilding ||
        cell.clutter == terrain::Clutter::kFoliage) {
      const float clutter_top = cell.ground + cell.clutter_height;
      top = std::max(top, static_cast<double>(clutter_top));
    }
  });
  highest_ = *std::max_element(top_.begin(), top_.end());
}

bool SurfaceCeiling::clears(const terrain::Terrain& t, geo::Vec3 p, geo::Vec3 q) const {
  const double z = std::min(p.z, q.z) - kCeilingMarginM;
  if (z > highest_) return true;
  const geo::CellIndex cp = t.cells().cell_of(t.area().clamp(p.xy()));
  const geo::CellIndex cq = t.cells().cell_of(t.area().clamp(q.xy()));
  const int tx0 = std::max(std::min(cp.ix, cq.ix) - 1, 0) / kTileCells;
  const int tx1 = std::min(std::max(cp.ix, cq.ix) + 1, cells_nx_ - 1) / kTileCells;
  const int ty0 = std::max(std::min(cp.iy, cq.iy) - 1, 0) / kTileCells;
  const int ty1 = std::min(std::max(cp.iy, cq.iy) + 1, cells_ny_ - 1) / kTileCells;
  for (int ty = ty0; ty <= ty1; ++ty)
    for (int tx = tx0; tx <= tx1; ++tx)
      if (!(z > top_[static_cast<std::size_t>(ty) * tiles_nx_ + tx])) return false;
  return true;
}

RayObstruction trace_ray(const terrain::Terrain& t, const SurfaceCeiling& ceiling, geo::Vec3 a,
                         geo::Vec3 b, double step_m) {
  expects(geo::finite(a) && geo::finite(b), "trace_ray: endpoints must be finite");
  expects(std::isfinite(step_m), "trace_ray: step must be finite");
  expects(ceiling.fits(t), "trace_ray: ceiling must be built from this terrain");
  RayObstruction out;
  const geo::Vec3 d = b - a;
  out.total_length_m = d.norm();
  if (out.total_length_m <= 0.0) return out;
  if (step_m <= 0.0) step_m = std::max(0.25, t.cell_size() * 0.5);

  const double step_count = std::ceil(out.total_length_m / step_m);
  expects(step_count <= std::numeric_limits<int>::max(), "trace_ray: too many steps");
  const int steps = std::max(1, static_cast<int>(step_count));
  const double dl = out.total_length_m / steps;
  const geo::Grid2D<terrain::TerrainCell>& cells = t.cells();
  // Sample at segment midpoints so endpoint cells contribute half steps and
  // the endpoints themselves (antenna positions) are never counted.
  const auto point = [&](int i) { return a + d * ((i + 0.5) / steps); };
  // Walk the steps in spans. Under round-to-nearest every coordinate of
  // point(i), its clamp and its cell index are monotone in i, so each step
  // of a span lies in the cell box of the span's end steps and no lower than
  // the lower of them. A step at or above its cell's ground and clutter top
  // changes nothing, so a span that clears the ceiling is skipped exactly.
  for (int first = 0; first < steps; first += kSpanSteps) {
    const int last = std::min(first + kSpanSteps, steps) - 1;
    if (ceiling.clears(t, point(first), point(last))) continue;
    for (int i = first; i <= last; ++i) {
      const geo::Vec3 p = point(i);
      const geo::Vec2 xy = t.area().clamp(p.xy());
      const terrain::TerrainCell& cell = cells.value_at(xy);
      if (p.z < cell.ground) {
        out.below_ground = true;
        continue;
      }
      if (cell.clutter == terrain::Clutter::kOpen || cell.clutter == terrain::Clutter::kWater)
        continue;
      if (p.z < cell.ground + cell.clutter_height) {
        if (cell.clutter == terrain::Clutter::kBuilding)
          out.building_length_m += dl;
        else
          out.foliage_length_m += dl;
      }
    }
  }
  return out;
}

double knife_edge_loss_db(const terrain::Terrain& t, geo::Vec3 a, geo::Vec3 b,
                          double frequency_hz, double step_m) {
  expects(frequency_hz > 0.0, "knife_edge_loss_db: frequency must be positive");
  const geo::Vec3 d = b - a;
  const double total = d.norm();
  if (total <= 0.0) return 0.0;
  if (step_m <= 0.0) step_m = std::max(0.5, t.cell_size() * 0.5);
  const double wavelength = 299'792'458.0 / frequency_hz;

  // Dominant edge: the sample maximizing the Fresnel parameter v.
  const int steps = std::max(2, static_cast<int>(std::ceil(total / step_m)));
  double v_max = -1e9;
  for (int i = 1; i < steps; ++i) {
    const double s = static_cast<double>(i) / steps;
    const geo::Vec3 p = a + d * s;
    const double surface = t.surface_height(t.area().clamp(p.xy()));
    const double h = surface - p.z;  // height of the edge above the ray
    const double d1 = s * total;
    const double d2 = total - d1;
    const double v = h * std::sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2));
    v_max = std::max(v_max, v);
  }
  if (v_max <= -0.78) return 0.0;
  const double t1 = v_max - 0.1;
  return 6.9 + 20.0 * std::log10(std::sqrt(t1 * t1 + 1.0) + t1);
}

double obstruction_loss_db(const RayObstruction& ray) {
  double loss = ray.building_length_m * kBuildingLossDbPerM +
                ray.foliage_length_m * kFoliageLossDbPerM;
  if (ray.below_ground) loss = std::max(loss, kBelowGroundLossDb);
  return std::min(loss, kMaxExcessLossDb);
}

}  // namespace skyran::rf

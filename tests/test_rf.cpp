// Tests for the RF propagation substrate: unit conversions, closed-form
// models, ray marching, shadowing, channels and the link budget.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "rf/models.hpp"
#include "rf/raytrace.hpp"
#include "rf/shadowing.hpp"
#include "rf/units.hpp"
#include "terrain/synth.hpp"

namespace skyran::rf {
namespace {

TEST(UnitsTest, DbLinearRoundTrip) {
  EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
  EXPECT_DOUBLE_EQ(db_to_linear(10.0), 10.0);
  EXPECT_DOUBLE_EQ(db_to_linear(3.0), std::pow(10.0, 0.3));
  EXPECT_NEAR(linear_to_db(db_to_linear(-17.3)), -17.3, 1e-12);
}

TEST(UnitsTest, NoiseFloorTenMegahertz) {
  // -174 + 10log10(10e6) + 7 = -97 dBm: the textbook LTE-10MHz floor.
  EXPECT_NEAR(noise_floor_dbm(10e6, 7.0), -97.0, 0.01);
}

TEST(ModelsTest, FsplMatchesTextbookValues) {
  // 2.6 GHz at 100 m: 32.45 + 20log10(2600) + 20log10(0.1) = 80.75 dB.
  EXPECT_NEAR(fspl_db(100.0, 2.6e9), 80.75, 0.05);
  // Doubling distance adds 6.02 dB.
  EXPECT_NEAR(fspl_db(200.0, 2.6e9) - fspl_db(100.0, 2.6e9), 6.02, 0.01);
  // Doubling frequency adds 6.02 dB.
  EXPECT_NEAR(fspl_db(100.0, 5.2e9) - fspl_db(100.0, 2.6e9), 6.02, 0.01);
}

TEST(ModelsTest, FsplClampsBelowOneMeter) {
  EXPECT_DOUBLE_EQ(fspl_db(0.0, 2.6e9), fspl_db(1.0, 2.6e9));
  EXPECT_DOUBLE_EQ(fspl_db(0.5, 2.6e9), fspl_db(1.0, 2.6e9));
}

TEST(ModelsTest, ContractsOnBadInputs) {
  EXPECT_THROW(fspl_db(10.0, 0.0), ContractViolation);
}

TEST(RayTraceTest, ClearRayOverFlatGround) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  const RayObstruction r =
      trace_ray(t, SurfaceCeiling(t), {10.0, 10.0, 50.0}, {90.0, 90.0, 2.0});
  EXPECT_TRUE(r.line_of_sight());
  EXPECT_NEAR(r.total_length_m, std::sqrt(80.0 * 80.0 * 2 + 48.0 * 48.0), 1e-9);
}

TEST(RayTraceTest, BuildingBlocksLowRay) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (int ix = 40; ix < 60; ++ix) {
    for (int iy = 0; iy < 100; ++iy) {
      t.cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      t.cells().at(ix, iy).clutter_height = 30.0F;
    }
  }
  // Horizontal ray at 10 m crosses the 20 m-thick slab.
  const SurfaceCeiling ceiling(t);
  const RayObstruction low = trace_ray(t, ceiling, {0.0, 50.0, 10.0}, {100.0, 50.0, 10.0});
  EXPECT_FALSE(low.line_of_sight());
  EXPECT_NEAR(low.building_length_m, 20.0, 1.5);
  // Ray above the roof is clear.
  const RayObstruction high = trace_ray(t, ceiling, {0.0, 50.0, 35.0}, {100.0, 50.0, 35.0});
  EXPECT_TRUE(high.line_of_sight());
}

TEST(RayTraceTest, SlantedRayPartialObstruction) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (int ix = 40; ix < 60; ++ix)
    for (int iy = 40; iy < 60; ++iy) {
      t.cells().at(ix, iy).clutter = terrain::Clutter::kFoliage;
      t.cells().at(ix, iy).clutter_height = 20.0F;
    }
  // Descending ray clears the canopy early on and dips into it later.
  const RayObstruction r =
      trace_ray(t, SurfaceCeiling(t), {0.0, 50.0, 40.0}, {100.0, 50.0, 2.0});
  EXPECT_GT(r.foliage_length_m, 0.0);
  EXPECT_DOUBLE_EQ(r.building_length_m, 0.0);
}

TEST(RayTraceTest, BelowGroundDetected) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (auto& c : t.cells().raw()) c.ground = 10.0F;
  const RayObstruction r =
      trace_ray(t, SurfaceCeiling(t), {0.0, 0.0, 5.0}, {100.0, 100.0, 5.0});
  EXPECT_TRUE(r.below_ground);
  EXPECT_FALSE(r.line_of_sight());
}

TEST(RayTraceTest, WaterDoesNotObstructAboveGround) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (int ix = 40; ix < 60; ++ix)
    for (int iy = 0; iy < 100; ++iy) {
      t.cells().at(ix, iy).clutter = terrain::Clutter::kWater;
      t.cells().at(ix, iy).clutter_height = 5.0F;  // meaningless for water
    }
  // Horizontal ray at 1 m crosses the 20 m-wide water strip.
  const RayObstruction r =
      trace_ray(t, SurfaceCeiling(t), {0.0, 50.0, 1.0}, {100.0, 50.0, 1.0});
  EXPECT_DOUBLE_EQ(r.building_length_m, 0.0);
  EXPECT_DOUBLE_EQ(r.foliage_length_m, 0.0);
  EXPECT_FALSE(r.below_ground);
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r), 0.0);
}

TEST(RayTraceTest, ZeroLengthRay) {
  const terrain::Terrain t = terrain::make_flat(10.0);
  const RayObstruction r = trace_ray(t, SurfaceCeiling(t), {5.0, 5.0, 5.0}, {5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(r.total_length_m, 0.0);
  EXPECT_TRUE(r.line_of_sight());
}

TEST(RayTraceTest, ObstructionLossCapsAtMax) {
  RayObstruction r;
  r.building_length_m = 1000.0;
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r), kMaxExcessLossDb);
  r.building_length_m = 10.0;
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r), 10.0 * kBuildingLossDbPerM);
  // Concrete attenuates more per meter than foliage.
  EXPECT_GT(kBuildingLossDbPerM, kFoliageLossDbPerM);
}

TEST(RayTraceTest, BelowGroundGetsFloorPenalty) {
  RayObstruction r;
  r.below_ground = true;
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r), kBelowGroundLossDb);
}

TEST(RayTraceTest, NonFiniteInputsRejected) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  const SurfaceCeiling ceiling(t);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const geo::Vec3 a{10.0, 10.0, 50.0};
  const geo::Vec3 b{90.0, 90.0, 2.0};
  EXPECT_THROW(trace_ray(t, ceiling, {nan, 10.0, 50.0}, b), ContractViolation);
  EXPECT_THROW(trace_ray(t, ceiling, a, {90.0, 90.0, inf}), ContractViolation);
  EXPECT_THROW(trace_ray(t, ceiling, a, {-inf, 90.0, 2.0}), ContractViolation);
  EXPECT_THROW(trace_ray(t, ceiling, a, b, nan), ContractViolation);
  EXPECT_THROW(trace_ray(t, ceiling, a, b, inf), ContractViolation);
  // Finite inputs whose step count overflows an int.
  EXPECT_THROW(trace_ray(t, ceiling, a, b, 1e-300), ContractViolation);
  EXPECT_THROW(trace_ray(t, ceiling, {-1e300, 0.0, 0.0}, {1e300, 0.0, 0.0}), ContractViolation);
}

TEST(RayTraceTest, CeilingFromAnotherRasterRejected) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  const SurfaceCeiling other(terrain::make_flat(50.0));
  EXPECT_THROW(trace_ray(t, other, {10.0, 10.0, 50.0}, {90.0, 90.0, 2.0}), ContractViolation);
}

TEST(SurfaceCeilingTest, HoldsTheFloatClutterTopOfObstructingCells) {
  terrain::Terrain t = terrain::make_flat(64.0);
  terrain::TerrainCell& roof = t.cells().at(20, 20);
  roof.ground = 0.1F;
  roof.clutter_height = 30.3F;
  roof.clutter = terrain::Clutter::kBuilding;
  terrain::TerrainCell& pond = t.cells().at(44, 44);
  pond.ground = 2.0F;
  pond.clutter_height = 50.0F;  // water never obstructs above ground
  pond.clutter = terrain::Clutter::kWater;
  const SurfaceCeiling ceiling(t);
  const double top = static_cast<float>(roof.ground + roof.clutter_height);
  const auto at = [](double x, double y, double z) { return geo::Vec3{x, y, z}; };
  EXPECT_FALSE(ceiling.clears(t, at(20.5, 20.5, top), at(20.5, 20.5, top)));
  EXPECT_TRUE(ceiling.clears(t, at(20.5, 20.5, top + 1e-6), at(20.5, 20.5, top + 1e-6)));
  // The lower end decides; the one-cell widening reaches into the roof's
  // tile from its neighbour.
  EXPECT_FALSE(ceiling.clears(t, at(24.5, 20.5, top), at(30.5, 20.5, 80.0)));
  EXPECT_TRUE(ceiling.clears(t, at(25.5, 20.5, top), at(30.5, 20.5, 80.0)));
  EXPECT_FALSE(ceiling.clears(t, at(44.5, 44.5, 2.0), at(44.5, 44.5, 2.0)));
  EXPECT_TRUE(ceiling.clears(t, at(44.5, 44.5, 2.0 + 1e-6), at(44.5, 44.5, 2.0 + 1e-6)));
  // Endpoints outside the area map to the edge cells.
  EXPECT_FALSE(ceiling.clears(t, at(-9.0, 0.5, 0.0), at(-9.0, 0.5, 0.0)));
  EXPECT_TRUE(ceiling.clears(t, at(-9.0, 0.5, 1e-6), at(5.0, -3.0, 1e-6)));
}

/// The march as it stood before spans were skipped: every step visited. The
/// skipping march must reproduce it bit for bit.
RayObstruction full_march(const terrain::Terrain& t, geo::Vec3 a, geo::Vec3 b, double step_m) {
  RayObstruction out;
  const geo::Vec3 d = b - a;
  out.total_length_m = d.norm();
  if (out.total_length_m <= 0.0) return out;
  if (step_m <= 0.0) step_m = std::max(0.25, t.cell_size() * 0.5);
  const int steps = std::max(1, static_cast<int>(std::ceil(out.total_length_m / step_m)));
  const double dl = out.total_length_m / steps;
  for (int i = 0; i < steps; ++i) {
    const double s = (i + 0.5) / steps;
    const geo::Vec3 p = a + d * s;
    const geo::Vec2 xy = t.area().clamp(p.xy());
    const terrain::TerrainCell& cell = t.cells().value_at(xy);
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
  return out;
}

struct Ray {
  geo::Vec3 a;
  geo::Vec3 b;
  double step_m = 0.0;
};

/// Compares every field with ==: a skipped span that should have counted
/// shows up as a length that differs in any bit.
::testing::AssertionResult same_march(const terrain::Terrain& t, const SurfaceCeiling& ceiling,
                                      const Ray& ray) {
  const RayObstruction want = full_march(t, ray.a, ray.b, ray.step_m);
  const RayObstruction got = trace_ray(t, ceiling, ray.a, ray.b, ray.step_m);
  if (got.total_length_m == want.total_length_m &&
      got.building_length_m == want.building_length_m &&
      got.foliage_length_m == want.foliage_length_m && got.below_ground == want.below_ground)
    return ::testing::AssertionSuccess();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ray (%.17g, %.17g, %.17g) -> (%.17g, %.17g, %.17g) step %.17g: "
                "building %.17g vs %.17g, foliage %.17g vs %.17g, below %d vs %d",
                ray.a.x, ray.a.y, ray.a.z, ray.b.x, ray.b.y, ray.b.z, ray.step_m,
                got.building_length_m, want.building_length_m, got.foliage_length_m,
                want.foliage_length_m, got.below_ground, want.below_ground);
  return ::testing::AssertionFailure() << buf;
}

bool obstructs(const terrain::TerrainCell& cell) {
  using terrain::Clutter;
  return cell.clutter == Clutter::kBuilding || cell.clutter == Clutter::kFoliage;
}

/// Per-tile maximum of every height the march compares with, computed here
/// independently of SurfaceCeiling.
std::vector<double> tile_tops(const terrain::Terrain& t) {
  constexpr int k = SurfaceCeiling::kTileCells;
  const int tnx = (t.cells().nx() + k - 1) / k;
  const int tny = (t.cells().ny() + k - 1) / k;
  std::vector<double> tops(static_cast<std::size_t>(tnx) * tny, -1e300);
  t.cells().for_each([&](geo::CellIndex c, const terrain::TerrainCell& cell) {
    double& top = tops[static_cast<std::size_t>(c.iy / k) * tnx + c.ix / k];
    top = std::max(top, static_cast<double>(cell.ground));
    if (obstructs(cell)) top = std::max(top, double{cell.ground + cell.clutter_height});
  });
  return tops;
}

/// Hand-placed edge cases: heights exactly at (and one ulp around) tile
/// ceilings and clutter tops, clamped endpoints, vertical, horizontal and
/// zero-length rays, explicit steps.
std::vector<Ray> planted_rays(const terrain::Terrain& t) {
  std::vector<Ray> rays;
  const auto& cells = t.cells();
  const geo::Rect& area = t.area();
  const double cs = t.cell_size();
  constexpr int k = SurfaceCeiling::kTileCells;
  const int tnx = (cells.nx() + k - 1) / k;
  const int tny = (cells.ny() + k - 1) / k;
  const std::vector<double> tops = tile_tops(t);
  const int stride = std::max(1, tnx * tny / 400);
  for (int ti = 0; ti < tnx * tny; ti += stride) {
    const int tx = ti % tnx;
    const int ty = ti / tnx;
    const double top = tops[static_cast<std::size_t>(ti)];
    const double x0 = area.min.x + (tx * k - 3) * cs;
    const double x1 = area.min.x + ((tx + 1) * k + 3) * cs;
    const double y0 = area.min.y + (ty * k - 3) * cs;
    const double y1 = area.min.y + ((ty + 1) * k + 3) * cs;
    const double ym = area.min.y + (ty * k + k / 2 + 0.3) * cs;
    for (double z : {top, std::nextafter(top, 1e9), std::nextafter(top, -1e9), top + 1e-9,
                     top + 2e-9}) {
      rays.push_back({{x0, ym, z}, {x1, ym, z}});
      rays.push_back({{x0, y0, z}, {x1, y1, z}});
      rays.push_back({{x1, y1, z}, {x0, y0, z}, 0.37});
    }
  }
  // Horizontal rays at the clutter top of obstructing cells, and halfway
  // between the float and double sums where they differ.
  int planted = 0;
  cells.for_each([&](geo::CellIndex c, const terrain::TerrainCell& cell) {
    if (!obstructs(cell) || ++planted % 37 != 0) return;
    const geo::Vec2 mid = cells.center_of(c);
    const double f = static_cast<float>(cell.ground + cell.clutter_height);
    const double g = double{cell.ground} + double{cell.clutter_height};
    for (double z : {f, g, 0.5 * (f + g), std::nextafter(f, -1e9)}) {
      rays.push_back({{mid.x - 0.4 * cs, mid.y, z}, {mid.x + 0.4 * cs, mid.y, z}});
      rays.push_back({{mid.x - 5.0 * cs, mid.y + 0.1, z}, {mid.x + 5.0 * cs, mid.y - 0.1, z}});
    }
    // Vertical rays through the cell, both ways.
    rays.push_back({{mid.x, mid.y, f + 60.0}, {mid.x, mid.y, f - 60.0}});
    rays.push_back({{mid.x, mid.y, cell.ground - 1.0}, {mid.x, mid.y, f + 0.5}, 0.1});
  });
  // Endpoints outside the area: the march clamps them onto the edge cells.
  const geo::Vec2 lo = area.min;
  const geo::Vec2 hi = area.max;
  rays.push_back({{lo.x - 50.0, lo.y - 50.0, 3.0}, {hi.x + 50.0, hi.y + 50.0, 40.0}});
  rays.push_back({{lo.x - 80.0, hi.y * 0.5, 25.0}, {lo.x - 10.0, hi.y * 0.5, 1.0}});
  rays.push_back({{hi.x + 30.0, lo.y + 10.0, 0.5}, {hi.x * 0.5, lo.y - 30.0, 80.0}, 1.0});
  rays.push_back({{hi.x, hi.y, 2.0}, {hi.x + 1e-3, hi.y + 1e-3, 2.0}});
  // Zero-length rays and a vertical one over the area's corner.
  rays.push_back({{hi.x * 0.5, hi.y * 0.5, 10.0}, {hi.x * 0.5, hi.y * 0.5, 10.0}});
  rays.push_back({{lo.x - 5.0, lo.y, 0.0}, {lo.x - 5.0, lo.y, 0.0}, 0.5});
  rays.push_back({{hi.x, hi.y, 120.0}, {hi.x, hi.y, -5.0}});
  return rays;
}

/// Seeded rays of the kinds the workloads shoot (UAV at altitude to a UE on
/// the surface) plus low grazing rays, clamped endpoints and explicit steps.
std::vector<Ray> random_rays(const terrain::Terrain& t, std::uint64_t seed, int n) {
  geo::Mt19937_64 rng(seed);
  const geo::Rect wide = t.area().inflated(40.0);
  std::uniform_real_distribution<double> ux(wide.min.x, wide.max.x);
  std::uniform_real_distribution<double> uy(wide.min.y, wide.max.y);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double steps[] = {0.0, 0.0, 0.0, 0.05, 0.3, 0.5, 1.0, 2.5, 7.0};
  std::vector<Ray> rays;
  rays.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const geo::Vec2 pa{ux(rng), uy(rng)};
    const geo::Vec2 pb{ux(rng), uy(rng)};
    const double sa = t.surface_height(t.area().clamp(pa));
    const double sb = t.surface_height(t.area().clamp(pb));
    Ray ray;
    switch (i % 3) {
      case 0:  // UAV -> UE
        ray.a = {pa.x, pa.y, 40.0 + 110.0 * unit(rng)};
        ray.b = {pb.x, pb.y, t.ground_height(t.area().clamp(pb)) + 1.5};
        break;
      case 1:  // grazing: both ends near the surface
        ray.a = {pa.x, pa.y, sa + 6.0 * unit(rng) - 2.0};
        ray.b = {pb.x, pb.y, sb + 6.0 * unit(rng) - 2.0};
        break;
      default:  // short hop at a random height
        ray.a = {pa.x, pa.y, 60.0 * unit(rng)};
        ray.b = ray.a + geo::Vec3{30.0 * unit(rng) - 15.0, 30.0 * unit(rng) - 15.0,
                                  20.0 * unit(rng) - 10.0};
        break;
    }
    ray.step_m = steps[rng() % std::size(steps)];
    rays.push_back(ray);
  }
  return rays;
}

class MarchOracle : public ::testing::TestWithParam<terrain::TerrainKind> {};

TEST_P(MarchOracle, MatchesFullMarchBitForBit) {
  const terrain::Terrain t = terrain::make_terrain(GetParam(), 7);
  const SurfaceCeiling ceiling(t);
  std::vector<Ray> rays = random_rays(t, 0x5eed, 12000);
  const std::vector<Ray> planted = planted_rays(t);
  rays.insert(rays.end(), planted.begin(), planted.end());
  int mismatches = 0;
  int obstructed = 0;
  for (const Ray& ray : rays) {
    const ::testing::AssertionResult same = same_march(t, ceiling, ray);
    if (!same && ++mismatches <= 5) ADD_FAILURE() << same.message();
    if (!full_march(t, ray.a, ray.b, ray.step_m).line_of_sight()) ++obstructed;
  }
  EXPECT_EQ(mismatches, 0) << "of " << rays.size() << " rays";
  // Both the skipping and the stepping paths get exercised.
  EXPECT_GT(obstructed, 0);
  EXPECT_LT(obstructed, static_cast<int>(rays.size()));
}

INSTANTIATE_TEST_SUITE_P(Terrains, MarchOracle,
                         ::testing::Values(terrain::TerrainKind::kFlat,
                                           terrain::TerrainKind::kCampus,
                                           terrain::TerrainKind::kRural,
                                           terrain::TerrainKind::kNyc,
                                           terrain::TerrainKind::kLarge),
                         [](const auto& info) { return terrain::to_string(info.param); });

TEST(MarchOracleTest, FloatClutterTopAboveDoubleSum) {
  // A roof whose float top rounds above the double sum: a ray between the two
  // is inside the building for the march, so the ceiling must not pass it.
  terrain::Terrain t = terrain::make_flat(64.0);
  terrain::TerrainCell& roof = t.cells().at(20, 20);
  roof.clutter = terrain::Clutter::kBuilding;
  roof.ground = 0.1F;
  roof.clutter_height = 30.0F;
  while (!(static_cast<double>(static_cast<float>(roof.ground + roof.clutter_height)) >
           static_cast<double>(roof.ground) + static_cast<double>(roof.clutter_height) + 1e-8))
    roof.clutter_height = std::nextafter(roof.clutter_height, 100.0F);
  const SurfaceCeiling ceiling(t);
  const double f = static_cast<float>(roof.ground + roof.clutter_height);
  const double g = static_cast<double>(roof.ground) + static_cast<double>(roof.clutter_height);
  const double z = 0.5 * (f + g);
  const Ray ray{{20.1, 20.5, z}, {20.9, 20.5, z}};
  EXPECT_TRUE(same_march(t, ceiling, ray));
  EXPECT_GT(trace_ray(t, ceiling, ray.a, ray.b).building_length_m, 0.0);
}

TEST(KnifeEdgeTest, ClearPathNoLoss) {
  const terrain::Terrain t = terrain::make_flat(200.0);
  EXPECT_DOUBLE_EQ(knife_edge_loss_db(t, {0, 100, 50}, {200, 100, 50}, 2.6e9), 0.0);
}

TEST(KnifeEdgeTest, GrazingEdgeCostsSixDb) {
  // An edge exactly at the ray height (v = 0) costs ~6 dB (textbook value).
  terrain::Terrain t = terrain::make_flat(200.0);
  for (int iy = 0; iy < 200; ++iy) {
    t.cells().at(100, iy).clutter = terrain::Clutter::kBuilding;
    t.cells().at(100, iy).clutter_height = 30.0F;
  }
  const double loss = knife_edge_loss_db(t, {0, 100, 30.0}, {200, 100, 30.0}, 2.6e9);
  EXPECT_NEAR(loss, 6.0, 1.5);
}

TEST(KnifeEdgeTest, LossGrowsWithPenetrationDepth) {
  terrain::Terrain t = terrain::make_flat(200.0);
  for (int iy = 0; iy < 200; ++iy) {
    t.cells().at(100, iy).clutter = terrain::Clutter::kBuilding;
    t.cells().at(100, iy).clutter_height = 60.0F;
  }
  const double shallow = knife_edge_loss_db(t, {0, 100, 55.0}, {200, 100, 55.0}, 2.6e9);
  const double deep = knife_edge_loss_db(t, {0, 100, 20.0}, {200, 100, 20.0}, 2.6e9);
  EXPECT_GT(shallow, 6.0);
  EXPECT_GT(deep, shallow + 5.0);
}

TEST(KnifeEdgeTest, ChannelUsesMinOfPenetrationAndDiffraction) {
  // Deep canyon: the knife-edge field beats the capped through-building one,
  // so enabling it strictly lowers path loss there.
  auto blocked = std::make_shared<terrain::Terrain>(terrain::make_flat(200.0));
  for (int ix = 80; ix < 120; ++ix)
    for (int iy = 0; iy < 200; ++iy) {
      blocked->cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      blocked->cells().at(ix, iy).clutter_height = 80.0F;
    }
  const auto terrain_ptr = std::shared_ptr<const terrain::Terrain>(blocked);
  RayTraceChannelParams hard;
  hard.shadowing_sigma_db = 0.0;
  hard.nlos_extra_sigma_db = 0.0;
  RayTraceChannelParams soft = hard;
  soft.use_knife_edge = true;
  const RayTraceChannel ch_hard(terrain_ptr, hard, 5);
  const RayTraceChannel ch_soft(terrain_ptr, soft, 5);
  const geo::Vec3 a{10.0, 100.0, 20.0};
  const geo::Vec3 b{190.0, 100.0, 1.5};
  EXPECT_LT(ch_soft.path_loss_db(a, b), ch_hard.path_loss_db(a, b));
  // LOS links (above the roof line end to end) are untouched by the flag.
  const geo::Vec3 c{10.0, 100.0, 120.0};
  const geo::Vec3 d{190.0, 100.0, 95.0};
  EXPECT_DOUBLE_EQ(ch_soft.path_loss_db(c, d), ch_hard.path_loss_db(c, d));
}

TEST(ShadowingTest, DeterministicAndBounded) {
  const ShadowingField f(3, 4.0, 30.0);
  const geo::Vec3 a{10.0, 20.0, 60.0};
  const geo::Vec3 b{200.0, 150.0, 1.5};
  EXPECT_DOUBLE_EQ(f.loss_db(a, b), f.loss_db(a, b));
  double max_abs = 0.0;
  for (int i = 0; i < 200; ++i) {
    const geo::Vec3 p{i * 3.1, i * 2.7, 50.0};
    max_abs = std::max(max_abs, std::abs(f.loss_db(p, b)));
  }
  EXPECT_LT(max_abs, 4.0 * 4.0);  // few-sigma bound
  EXPECT_GT(max_abs, 1.0);        // but not degenerate
}

TEST(ShadowingTest, ZeroSigmaIsZeroLoss) {
  const ShadowingField f(3, 0.0, 30.0);
  EXPECT_DOUBLE_EQ(f.loss_db({0, 0, 10}, {50, 50, 1}), 0.0);
}

TEST(ChannelTest, FsplChannelMatchesModel) {
  const FsplChannel ch(2.6e9);
  EXPECT_DOUBLE_EQ(ch.path_loss_db({0, 0, 0}, {100, 0, 0}), fspl_db(100.0, 2.6e9));
  EXPECT_DOUBLE_EQ(ch.frequency_hz(), 2.6e9);
  EXPECT_THROW(FsplChannel(0.0), ContractViolation);
}

TEST(ChannelTest, RayTraceChannelSymmetricAndDeterministic) {
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_campus(5, 2.0));
  const RayTraceChannel ch(terrain, {}, 9);
  const geo::Vec3 a{50.0, 60.0, 45.0};
  const geo::Vec3 b{220.0, 180.0, 1.5};
  EXPECT_DOUBLE_EQ(ch.path_loss_db(a, b), ch.path_loss_db(b, a));
  const RayTraceChannel ch2(terrain, {}, 9);
  EXPECT_DOUBLE_EQ(ch.path_loss_db(a, b), ch2.path_loss_db(a, b));
}

TEST(ChannelTest, ObstructionIncreasesLoss) {
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_flat(200.0));
  // Insert a slab between two fixed points.
  auto blocked = std::make_shared<terrain::Terrain>(terrain::make_flat(200.0));
  for (int ix = 45; ix < 55; ++ix)
    for (int iy = 0; iy < 200; ++iy) {
      blocked->cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      blocked->cells().at(ix, iy).clutter_height = 50.0F;
    }
  RayTraceChannelParams params;
  params.shadowing_sigma_db = 0.0;  // isolate the obstruction term
  params.nlos_extra_sigma_db = 0.0;
  const RayTraceChannel clear_ch(terrain, params, 3);
  const RayTraceChannel blocked_ch(std::shared_ptr<const terrain::Terrain>(blocked), params, 3);
  const geo::Vec3 a{10.0, 100.0, 10.0};
  const geo::Vec3 b{190.0, 100.0, 10.0};
  EXPECT_GT(blocked_ch.path_loss_db(a, b), clear_ch.path_loss_db(a, b) + 10.0);
  EXPECT_TRUE(clear_ch.line_of_sight(a, b));
  EXPECT_FALSE(blocked_ch.line_of_sight(a, b));
}

TEST(ChannelTest, NullTerrainRejected) {
  EXPECT_THROW(RayTraceChannel(nullptr, {}, 1), ContractViolation);
}

TEST(ChannelTest, PathLossSweepIndependentOfWorkerCount) {
  // Every lane of a sweep reads the channel's one surface ceiling.
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_campus(3));
  const RayTraceChannel ch(terrain, {}, 11);
  const geo::Vec3 ue{150.0, 210.0, 1.5};
  constexpr int kSide = 60;
  const auto sweep = [&](int workers) {
    const core::ScopedWorkers scope(workers);
    std::vector<double> loss(kSide * kSide);
    core::parallel_for(loss.size(), [&](std::size_t i) {
      const double ix = static_cast<double>(i % kSide);
      const double iy = static_cast<double>(i / kSide);
      const geo::Vec3 uav{5.0 * ix, 5.0 * iy, 30.0 + std::fmod(ix + iy, 7.0)};
      loss[i] = ch.path_loss_db(uav, ue);
    });
    return loss;
  };
  const std::vector<double> one = sweep(1);
  const std::vector<double> four = sweep(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) ASSERT_EQ(one[i], four[i]) << "position " << i;
}

TEST(LinkBudgetTest, SnrFollowsPathLoss) {
  const LinkBudget lb;
  const double snr100 = lb.snr_db(100.0);
  EXPECT_DOUBLE_EQ(lb.snr_db(110.0), snr100 - 10.0);
  // Inverse is consistent.
  EXPECT_NEAR(lb.path_loss_for_snr_db(snr100), 100.0, 1e-9);
}

TEST(LinkBudgetTest, RssIndependentOfNoise) {
  LinkBudget lb;
  const double rss = lb.rss_dbm(95.0);
  lb.noise_figure_db += 10.0;
  EXPECT_DOUBLE_EQ(lb.rss_dbm(95.0), rss);
  EXPECT_LT(lb.snr_db(95.0), rss - lb.effective_floor_dbm() + 1e-9);
}

/// Path-loss monotonicity property over open terrain: farther is weaker.
class FsplMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FsplMonotone, LossIncreasesWithDistance) {
  const double f = GetParam();
  double prev = 0.0;
  for (double d = 10.0; d < 2000.0; d *= 1.7) {
    const double loss = fspl_db(d, f);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, FsplMonotone,
                         ::testing::Values(700e6, 1.8e9, 2.6e9, 3.5e9, 5.9e9));

/// Fig. 7-style property: path loss along a flight segment over complex
/// terrain varies by tens of dB (the reason probing time hurts, Sec 2.5).
TEST(ChannelTest, PathLossVariesAlongFlightSegment) {
  // Some 50 m segment near the campus building must show a large path-loss
  // swing (the paper's Fig. 7: ~18 dB). Search candidate rows like an
  // operator picking an illustrative segment would.
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_campus(5, 2.0));
  const RayTraceChannel ch(terrain, {}, 9);
  const geo::Vec3 ue{150.0, 210.0, 1.5};  // north of the office block
  double best_span = 0.0;
  for (double y = 80.0; y <= 140.0; y += 10.0) {
    double lo = 1e9;
    double hi = -1e9;
    for (double x = 100.0; x <= 200.0; x += 2.0) {
      const double pl = ch.path_loss_db({x, y, 45.0}, ue);
      lo = std::min(lo, pl);
      hi = std::max(hi, pl);
    }
    best_span = std::max(best_span, hi - lo);
  }
  EXPECT_GT(best_span, 8.0);  // tens of dB in the paper; at least several here
}

}  // namespace
}  // namespace skyran::rf

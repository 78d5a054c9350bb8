// Tests for the terrain substrate: raster semantics and the procedural
// generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "terrain/synth.hpp"
#include "terrain/terrain.hpp"

namespace skyran::terrain {
namespace {

// Share of the patch's cells carrying clutter class `c`.
double clutter_share(const Terrain& t, Clutter c) {
  std::size_t n = 0;
  t.cells().for_each([&](geo::CellIndex, const TerrainCell& cell) {
    if (cell.clutter == c) ++n;
  });
  return static_cast<double>(n) / static_cast<double>(t.cells().size());
}

// Highest surface (ground plus clutter) over the whole patch.
double max_surface(const Terrain& t) {
  double best = 0.0;
  t.cells().for_each([&](geo::CellIndex, const TerrainCell& cell) {
    best = std::max(best, static_cast<double>(cell.ground) +
                              static_cast<double>(cell.clutter_height));
  });
  return best;
}

TEST(TerrainTest, FlatTerrainIsOpenEverywhere) {
  const Terrain t = make_flat(100.0);
  EXPECT_DOUBLE_EQ(t.ground_height({50.0, 50.0}), 0.0);
  EXPECT_DOUBLE_EQ(t.surface_height({50.0, 50.0}), 0.0);
  EXPECT_EQ(t.clutter_at({50.0, 50.0}), Clutter::kOpen);
  EXPECT_DOUBLE_EQ(clutter_share(t, Clutter::kOpen), 1.0);
}

TEST(TerrainTest, SurfaceHeightIncludesClutter) {
  Terrain t = make_flat(20.0);
  TerrainCell& c = t.cells().at(5, 5);
  c.clutter = Clutter::kBuilding;
  c.clutter_height = 15.0F;
  EXPECT_DOUBLE_EQ(t.surface_height(t.cells().center_of({5, 5})), 15.0);
}

TEST(TerrainTest, QueriesClampOutsidePoints) {
  const Terrain t = make_flat(50.0);
  EXPECT_NO_THROW(t.ground_height({-10.0, 200.0}));
  EXPECT_NO_THROW(t.clutter_at({1000.0, 1000.0}));
}

TEST(SynthTest, CampusHasBuildingAndForest) {
  const Terrain t = make_campus(7);
  EXPECT_GT(clutter_share(t, Clutter::kBuilding), 0.03);
  EXPECT_GT(clutter_share(t, Clutter::kFoliage), 0.05);
  EXPECT_GT(clutter_share(t, Clutter::kOpen), 0.3);
  // The main office building stands ~22 m tall somewhere.
  EXPECT_GT(max_surface(t), 22.0);
  EXPECT_DOUBLE_EQ(t.area().width(), 300.0);
}

TEST(SynthTest, NycIsDenseAndTall) {
  const Terrain t = make_nyc(7);
  EXPECT_GT(clutter_share(t, Clutter::kBuilding), 0.4);
  EXPECT_GT(max_surface(t), 60.0);
  EXPECT_DOUBLE_EQ(t.area().width(), 250.0);
}

TEST(SynthTest, RuralIsMostlyOpen) {
  const Terrain t = make_rural(7);
  EXPECT_GT(clutter_share(t, Clutter::kOpen), 0.5);
  EXPECT_LT(clutter_share(t, Clutter::kBuilding), 0.05);
}

TEST(SynthTest, LargeCoversOneKilometer) {
  const Terrain t = make_large(7, 4.0);  // coarse cells keep this test fast
  EXPECT_DOUBLE_EQ(t.area().width(), 1000.0);
  EXPECT_GT(clutter_share(t, Clutter::kBuilding), 0.01);
}

TEST(SynthTest, DeterministicInSeed) {
  const Terrain a = make_nyc(11);
  const Terrain b = make_nyc(11);
  const Terrain c = make_nyc(12);
  EXPECT_EQ(a.cells().at(100, 100).clutter_height, b.cells().at(100, 100).clutter_height);
  bool any_diff = false;
  for (int i = 0; i < 250 && !any_diff; i += 5)
    any_diff = a.cells().at(i, i).clutter_height != c.cells().at(i, i).clutter_height;
  EXPECT_TRUE(any_diff);
}

TEST(SynthTest, MakeTerrainDispatchesAllKinds) {
  for (const TerrainKind k : {TerrainKind::kFlat, TerrainKind::kCampus, TerrainKind::kRural,
                              TerrainKind::kNyc, TerrainKind::kLarge}) {
    const Terrain t = make_terrain(k, 3, 5.0);
    EXPECT_DOUBLE_EQ(t.area().width(), default_extent(k)) << to_string(k);
  }
}

}  // namespace
}  // namespace skyran::terrain

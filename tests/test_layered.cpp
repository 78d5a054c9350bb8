// Tests for layered (3-D) REMs and altitude-aware placement.
#include <gtest/gtest.h>

#include "geo/contract.hpp"
#include "rem/layered.hpp"
#include "terrain/synth.hpp"

namespace skyran::rem {
namespace {

geo::Rect area100() { return geo::Rect::square(100.0); }

LayeredRem make_stack(geo::Vec3 ue = {50.0, 50.0, 1.5}) {
  return LayeredRem(area100(), 10.0, {40.0, 80.0}, ue);
}

TEST(LayeredRemTest, ConstructionAndLayerAccess) {
  LayeredRem stack = make_stack();
  EXPECT_EQ(stack.layer_count(), 2u);
  EXPECT_DOUBLE_EQ(stack.layer(0).altitude_m(), 40.0);
  EXPECT_DOUBLE_EQ(stack.layer(1).altitude_m(), 80.0);
  EXPECT_THROW(stack.layer(2), ContractViolation);
  EXPECT_THROW(LayeredRem(area100(), 10.0, {}, {0, 0, 1.5}), ContractViolation);
  EXPECT_THROW(LayeredRem(area100(), 10.0, {80.0, 40.0}, {0, 0, 1.5}), ContractViolation);
  EXPECT_THROW(LayeredRem(area100(), 10.0, {40.0, 40.0}, {0, 0, 1.5}), ContractViolation);
}

TEST(LayeredRemTest, NearestLayer) {
  const LayeredRem stack = make_stack();
  EXPECT_EQ(stack.nearest_layer(10.0), 0u);
  EXPECT_EQ(stack.nearest_layer(55.0), 0u);
  EXPECT_EQ(stack.nearest_layer(70.0), 1u);
  EXPECT_EQ(stack.nearest_layer(200.0), 1u);
}

TEST(Placement3DTest, PicksTheBetterAltitude) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  LayeredRem a = make_stack({20.0, 20.0, 1.5});
  // Low layer has a great spot; high layer is mediocre everywhere.
  a.layer(0).add_measurement(0, {30.0, 30.0}, 25.0);
  a.layer(0).add_measurement(0, {70.0, 70.0}, 5.0);
  a.layer(1).add_measurement(0, {30.0, 30.0}, 8.0);
  a.layer(1).add_measurement(0, {70.0, 70.0}, 8.0);
  const std::vector<LayeredRem> stacks{std::move(a)};
  const Placement3D p = choose_placement_3d(stacks, t);
  EXPECT_DOUBLE_EQ(p.altitude_m, 40.0);
  EXPECT_NEAR(p.objective_snr_db, 25.0, 1e-9);
  EXPECT_LT(p.position.dist({30.0, 30.0}), 30.0);
}

TEST(Placement3DTest, MismatchedLaddersRejected) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  std::vector<LayeredRem> stacks;
  stacks.push_back(make_stack());
  stacks.push_back(LayeredRem(area100(), 10.0, {40.0, 90.0}, {60.0, 60.0, 1.5}));
  EXPECT_THROW(choose_placement_3d(stacks, t), ContractViolation);
  EXPECT_THROW(choose_placement_3d({}, t), ContractViolation);
}

TEST(Placement3DTest, RespectsFeasibilityPerAltitude) {
  // A 60 m tower everywhere: the 40 m layer is entirely infeasible, so the
  // 3-D search must pick the 80 m layer even if 40 m looks better on paper.
  terrain::Terrain t = terrain::make_flat(100.0);
  for (auto& c : t.cells().raw()) {
    c.clutter = terrain::Clutter::kBuilding;
    c.clutter_height = 60.0F;
  }
  LayeredRem stack = make_stack();
  stack.layer(0).add_measurement(0, {50.0, 50.0}, 99.0);  // tempting but infeasible
  stack.layer(1).add_measurement(0, {50.0, 50.0}, 7.0);
  const std::vector<LayeredRem> stacks{std::move(stack)};
  const Placement3D p = choose_placement_3d(stacks, t);
  EXPECT_DOUBLE_EQ(p.altitude_m, 80.0);
}

}  // namespace
}  // namespace skyran::rem

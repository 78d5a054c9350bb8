// Tests for UE deployment generators and mobility models.
#include <gtest/gtest.h>

#include <algorithm>

#include "geo/contract.hpp"
#include "mobility/deployment.hpp"
#include "mobility/model.hpp"
#include "terrain/synth.hpp"

namespace skyran::mobility {
namespace {

TEST(DeploymentTest, UniformStaysWalkableAndInBounds) {
  const terrain::Terrain t = terrain::make_nyc(3, 2.0);
  const auto ues = deploy_uniform(t, 20, 4);
  ASSERT_EQ(ues.size(), 20u);
  for (const geo::Vec3& u : ues) {
    EXPECT_TRUE(t.area().inflated(-9.9).contains(u.xy()));
    EXPECT_NE(t.clutter_at(u.xy()), terrain::Clutter::kBuilding);
    EXPECT_NEAR(u.z, t.ground_height(u.xy()) + 1.5, 1e-9);
  }
}

TEST(DeploymentTest, DeterministicInSeed) {
  const terrain::Terrain t = terrain::make_campus(3, 2.0);
  const auto a = deploy_uniform(t, 5, 7);
  const auto b = deploy_uniform(t, 5, 7);
  const auto c = deploy_uniform(t, 5, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DeploymentTest, ClusteredFormsPockets) {
  const terrain::Terrain t = terrain::make_flat(300.0);
  const auto ues = deploy_clustered(t, 12, 2, 20.0, 5);
  ASSERT_EQ(ues.size(), 12u);
  // Mean nearest-neighbor distance is much smaller than for uniform spread.
  double cluster_nn = 0.0;
  for (const geo::Vec3& u : ues) {
    double best = 1e9;
    for (const geo::Vec3& v : ues)
      if (&u != &v) best = std::min(best, u.xy().dist(v.xy()));
    cluster_nn += best;
  }
  cluster_nn /= static_cast<double>(ues.size());
  EXPECT_LT(cluster_nn, 25.0);
}

TEST(DeploymentTest, MixedVisibilityHitsAllFlavors) {
  const terrain::Terrain t = terrain::make_campus(3, 2.0);
  const auto ues = deploy_mixed_visibility(t, 6, 9);
  ASSERT_EQ(ues.size(), 6u);
  // Flavor 1 (indices 1, 4) near foliage.
  bool any_foliage = false;
  for (const std::size_t i : {1u, 4u}) {
    const auto c = t.clutter_at(ues[i].xy());
    any_foliage = any_foliage || c == terrain::Clutter::kFoliage;
  }
  EXPECT_TRUE(any_foliage);
  for (const geo::Vec3& u : ues)
    EXPECT_NE(t.clutter_at(u.xy()), terrain::Clutter::kBuilding);
}

TEST(DeploymentTest, Contracts) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  EXPECT_THROW(deploy_uniform(t, 0, 1), ContractViolation);
  EXPECT_THROW(deploy_clustered(t, 5, 0, 10.0, 1), ContractViolation);
  EXPECT_THROW(deploy_clustered(t, 5, 2, 0.0, 1), ContractViolation);
}

TEST(RouteMobilityTest, WalksAtConfiguredSpeed) {
  const terrain::Terrain t = terrain::make_flat(200.0);
  std::vector<geo::Vec3> initial{{10.0, 10.0, 1.5}, {50.0, 50.0, 1.5}};
  RouteMobility::Route route;
  route.ue_index = 0;
  route.waypoints = geo::Path({{10.0, 10.0}, {110.0, 10.0}});
  route.speed_mps = 2.0;
  RouteMobility m(t, initial, {route});
  m.advance(10.0);  // 20 m along the route
  EXPECT_NEAR(m.positions()[0].x, 30.0, 1e-9);
  EXPECT_NEAR(m.positions()[0].y, 10.0, 1e-9);
  // UE 1 has no route: stays.
  EXPECT_EQ(m.positions()[1], initial[1]);
}

TEST(RouteMobilityTest, PingPongsAtRouteEnd) {
  const terrain::Terrain t = terrain::make_flat(200.0);
  RouteMobility::Route route;
  route.ue_index = 0;
  route.waypoints = geo::Path({{0.0, 10.0}, {100.0, 10.0}});
  route.speed_mps = 1.0;
  RouteMobility m(t, {{0.0, 10.0, 1.5}}, {route});
  m.advance(150.0);  // 100 out + 50 back
  EXPECT_NEAR(m.positions()[0].x, 50.0, 1e-9);
  m.advance(100.0);  // 50 back to start + 50 out again
  EXPECT_NEAR(m.positions()[0].x, 50.0, 1e-9);
}

TEST(RouteMobilityTest, Contracts) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  RouteMobility::Route bad;
  bad.ue_index = 5;  // out of range
  bad.waypoints = geo::Path({{0.0, 0.0}, {10.0, 0.0}});
  EXPECT_THROW(RouteMobility(t, {{0.0, 0.0, 1.5}}, {bad}), ContractViolation);
}

TEST(EpochRelocateTest, MovesConfiguredFraction) {
  const terrain::Terrain t = terrain::make_flat(300.0);
  const auto initial = deploy_uniform(t, 8, 3);
  EpochRelocateMobility m(t, initial, 0.5, 4);
  const auto moved = m.relocate_epoch();
  EXPECT_EQ(moved.size(), 4u);
  int changed = 0;
  for (std::size_t i = 0; i < 8; ++i)
    if (!(m.positions()[i] == initial[i])) ++changed;
  EXPECT_EQ(changed, 4);
}

TEST(EpochRelocateTest, ZeroFractionMovesNobody) {
  const terrain::Terrain t = terrain::make_flat(300.0);
  const auto initial = deploy_uniform(t, 5, 3);
  EpochRelocateMobility m(t, initial, 0.0, 4);
  EXPECT_TRUE(m.relocate_epoch().empty());
  EXPECT_EQ(m.positions(), initial);
}

TEST(EpochRelocateTest, FullFractionMovesEverybody) {
  const terrain::Terrain t = terrain::make_flat(300.0);
  const auto initial = deploy_uniform(t, 5, 3);
  EpochRelocateMobility m(t, initial, 1.0, 4);
  EXPECT_EQ(m.relocate_epoch().size(), 5u);
}

TEST(MakeRandomRoutesTest, BuildsRequestedRoutes) {
  const terrain::Terrain t = terrain::make_flat(300.0);
  const auto initial = deploy_uniform(t, 6, 3);
  const auto routes = make_random_routes(t, initial, 3, 120.0, 5);
  ASSERT_EQ(routes.size(), 3u);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_EQ(routes[i].ue_index, i);
    EXPECT_NEAR(routes[i].waypoints.length(), 120.0, 1.0);
  }
  EXPECT_THROW(make_random_routes(t, initial, 10, 120.0, 5), ContractViolation);
}

/// Fraction sweep property for the relocation model.
class RelocateFraction : public ::testing::TestWithParam<double> {};

TEST_P(RelocateFraction, MovesRoundedShare) {
  const terrain::Terrain t = terrain::make_flat(300.0);
  const auto initial = deploy_uniform(t, 10, 3);
  EpochRelocateMobility m(t, initial, GetParam(), 4);
  EXPECT_EQ(m.relocate_epoch().size(),
            static_cast<std::size_t>(std::lround(GetParam() * 10.0)));
}

INSTANTIATE_TEST_SUITE_P(Fractions, RelocateFraction,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace skyran::mobility

// Tests for the UAV substrate: battery model, GPS sensor, waypoint flight
// simulation and trajectory builders.
#include <gtest/gtest.h>

#include <cmath>

#include "geo/contract.hpp"
#include "uav/battery.hpp"
#include "uav/flight.hpp"
#include "uav/gps.hpp"
#include "uav/trajectory.hpp"

namespace skyran::uav {
namespace {

TEST(BatteryTest, HoverDrain) {
  Battery b({.capacity_wh = 600.0, .hover_power_w = 1200.0, .forward_power_w_per_mps = 40.0});
  b.drain(900.0, 0.0);  // 15 minutes of hover at 1200 W = 300 Wh
  EXPECT_NEAR(b.remaining_wh(), 300.0, 1e-9);
  EXPECT_FALSE(b.depleted());
  b.drain(3600.0, 0.0);  // drains past empty, clamped at zero
  EXPECT_DOUBLE_EQ(b.remaining_wh(), 0.0);
  EXPECT_TRUE(b.depleted());
}

TEST(BatteryTest, ForwardFlightCostsMore) {
  Battery hover;
  Battery cruise;
  hover.drain(600.0, 0.0);
  cruise.drain(600.0, kDefaultCruiseMps);
  EXPECT_LT(cruise.remaining_wh(), hover.remaining_wh());
  EXPECT_GT(cruise.power_w(kDefaultCruiseMps), cruise.power_w(0.0));
}

TEST(BatteryTest, EnduranceMatchesCapacity) {
  Battery b({.capacity_wh = 100.0, .hover_power_w = 200.0, .forward_power_w_per_mps = 0.0});
  EXPECT_NEAR(b.hover_endurance_s(), 1800.0, 1e-6);
  b.drain(900.0, 0.0);
  EXPECT_NEAR(b.hover_endurance_s(), 900.0, 1e-6);
  EXPECT_NEAR(b.remaining_fraction(), 0.5, 1e-9);
}

TEST(BatteryTest, NeverGoesNegative) {
  Battery b({.capacity_wh = 1.0, .hover_power_w = 3600.0, .forward_power_w_per_mps = 0.0});
  b.drain(7200.0, 0.0);
  EXPECT_DOUBLE_EQ(b.remaining_wh(), 0.0);
}

TEST(BatteryTest, Contracts) {
  EXPECT_THROW(Battery({.capacity_wh = 0.0}), ContractViolation);
  Battery b;
  EXPECT_THROW(b.drain(-1.0, 0.0), ContractViolation);
  EXPECT_THROW(b.power_w(-1.0), ContractViolation);
}

TEST(GpsTest, NoiseStatistics) {
  GpsSensor gps(7, 2.0, 3.0);
  const geo::Vec3 truth{100.0, 200.0, 60.0};
  double sum_h2 = 0.0;
  double sum_v2 = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const GpsFix fix = gps.sample(truth, i * 0.02);
    sum_h2 += (fix.position.x - truth.x) * (fix.position.x - truth.x);
    sum_v2 += (fix.position.z - truth.z) * (fix.position.z - truth.z);
    EXPECT_DOUBLE_EQ(fix.time_s, i * 0.02);
  }
  EXPECT_NEAR(std::sqrt(sum_h2 / n), 2.0, 0.2);
  EXPECT_NEAR(std::sqrt(sum_v2 / n), 3.0, 0.3);
}

TEST(GpsTest, DeterministicInSeed) {
  GpsSensor a(9);
  GpsSensor b(9);
  const GpsFix fa = a.sample({1, 2, 3}, 0.0);
  const GpsFix fb = b.sample({1, 2, 3}, 0.0);
  EXPECT_EQ(fa.position, fb.position);
}

TEST(FlightTest, PlanLengthAndDuration) {
  FlightPlan plan;
  plan.waypoints = {{0, 0, 50}, {30, 40, 50}};
  plan.speed_mps = 10.0;
  EXPECT_DOUBLE_EQ(plan.length_m(), 50.0);
  EXPECT_DOUBLE_EQ(plan.duration_s(), 5.0);
}

TEST(FlightTest, AtAltitudeLiftsGroundTrack) {
  const geo::Path track({{0, 0}, {10, 0}, {10, 10}});
  const FlightPlan plan = FlightPlan::at_altitude(track, 45.0, 8.0);
  ASSERT_EQ(plan.waypoints.size(), 3u);
  for (const geo::Vec3& w : plan.waypoints) EXPECT_DOUBLE_EQ(w.z, 45.0);
  EXPECT_DOUBLE_EQ(plan.ground_track().length(), track.length());
}

TEST(FlightTest, SamplesAreEquispacedInTime) {
  FlightPlan plan;
  plan.waypoints = {{0, 0, 50}, {100, 0, 50}};
  plan.speed_mps = 10.0;
  const auto samples = fly(plan, 0.5, 100.0);
  ASSERT_GE(samples.size(), 21u);
  EXPECT_DOUBLE_EQ(samples.front().time_s, 100.0);
  EXPECT_DOUBLE_EQ(samples.back().time_s, 110.0);
  EXPECT_EQ(samples.back().position, (geo::Vec3{100, 0, 50}));
  // Constant speed: consecutive positions 5 m apart.
  for (std::size_t i = 2; i + 1 < samples.size(); ++i)
    EXPECT_NEAR(samples[i].position.dist(samples[i - 1].position), 5.0, 1e-9);
}

TEST(FlightTest, FlyDrainsBattery) {
  FlightPlan plan;
  plan.waypoints = {{0, 0, 50}, {100, 0, 50}};
  Battery battery;
  const double before = battery.remaining_wh();
  fly(plan, 0.1, 0.0, &battery);
  EXPECT_LT(battery.remaining_wh(), before);
}

TEST(FlightTest, PlanPointAtHandlesDuplicates) {
  FlightPlan plan;
  plan.waypoints = {{0, 0, 10}, {0, 0, 10}, {10, 0, 10}};
  EXPECT_EQ(plan_point_at(plan, 5.0), (geo::Vec3{5, 0, 10}));
  EXPECT_EQ(plan_point_at(plan, -1.0), (geo::Vec3{0, 0, 10}));
  EXPECT_EQ(plan_point_at(plan, 999.0), (geo::Vec3{10, 0, 10}));
}

TEST(FlightTest, Contracts) {
  FlightPlan empty;
  EXPECT_THROW(fly(empty, 0.1), ContractViolation);
  FlightPlan plan;
  plan.waypoints = {{0, 0, 0}, {1, 0, 0}};
  EXPECT_THROW(fly(plan, 0.0), ContractViolation);
  plan.speed_mps = 0.0;
  EXPECT_THROW(fly(plan, 0.1), ContractViolation);
}

TEST(TrajectoryTest, ZigzagCoversArea) {
  const geo::Rect area = geo::Rect::square(100.0);
  const geo::Path z = zigzag(area, 20.0);
  ASSERT_GE(z.size(), 10u);
  EXPECT_EQ(z.points().front(), (geo::Vec2{0.0, 0.0}));
  // Alternating rows hit both x extremes.
  bool hit_left = false;
  bool hit_right = false;
  for (const geo::Vec2 p : z.points()) {
    hit_left = hit_left || p.x == area.min.x;
    hit_right = hit_right || p.x == area.max.x;
    EXPECT_TRUE(area.contains(p));
  }
  EXPECT_TRUE(hit_left);
  EXPECT_TRUE(hit_right);
  // Last row reaches the top.
  EXPECT_DOUBLE_EQ(z.points().back().y, area.max.y);
}

TEST(TrajectoryTest, ZigzagLengthScalesWithSpacing) {
  const geo::Rect area = geo::Rect::square(100.0);
  EXPECT_GT(zigzag(area, 10.0).length(), zigzag(area, 40.0).length());
}

TEST(TrajectoryTest, RandomWalkRespectsLengthAndBounds) {
  const geo::Rect area = geo::Rect::square(200.0);
  const geo::Path w = random_walk(area, {100.0, 100.0}, 60.0, 10.0, 5);
  EXPECT_NEAR(w.length(), 60.0, 1e-6);
  for (const geo::Vec2 p : w.points()) EXPECT_TRUE(area.contains(p));
  EXPECT_EQ(w.points().front(), (geo::Vec2{100.0, 100.0}));
}

TEST(TrajectoryTest, RandomWalkDeterministicInSeed) {
  const geo::Rect area = geo::Rect::square(200.0);
  const geo::Path a = random_walk(area, {100, 100}, 50.0, 10.0, 5);
  const geo::Path b = random_walk(area, {100, 100}, 50.0, 10.0, 5);
  const geo::Path c = random_walk(area, {100, 100}, 50.0, 10.0, 6);
  EXPECT_EQ(a.points(), b.points());
  EXPECT_NE(a.points(), c.points());
}

TEST(TrajectoryTest, RandomWalkEscapesCorners) {
  const geo::Rect area = geo::Rect::square(100.0);
  // Start at the very corner: fallback heading must keep the walk inside.
  const geo::Path w = random_walk(area, {0.0, 0.0}, 40.0, 15.0, 1);
  for (const geo::Vec2 p : w.points()) EXPECT_TRUE(area.contains(p));
}

TEST(TrajectoryTest, TruncateToBudget) {
  const geo::Path p({{0, 0}, {10, 0}, {10, 10}});
  const geo::Path cut = truncate_to_budget(p, 15.0);
  EXPECT_NEAR(cut.length(), 15.0, 1e-9);
  EXPECT_EQ(cut.points().back(), (geo::Vec2{10.0, 5.0}));
  // Budget beyond length returns the full path.
  EXPECT_EQ(truncate_to_budget(p, 100.0).points(), p.points());
  EXPECT_THROW(truncate_to_budget(p, -1.0), ContractViolation);
}

/// Property: zigzag with spacing s covers every point of the area within
/// s/2 + epsilon of some path segment (full coverage guarantee).
class ZigzagCoverage : public ::testing::TestWithParam<double> {};

TEST_P(ZigzagCoverage, EveryPointNearPath) {
  const double spacing = GetParam();
  const geo::Rect area = geo::Rect::square(100.0);
  const geo::Path z = zigzag(area, spacing);
  for (double x = 0.0; x <= 100.0; x += 13.0) {
    for (double y = 0.0; y <= 100.0; y += 13.0) {
      EXPECT_LE(z.distance_to({x, y}), spacing / 2.0 + 1e-9)
          << "(" << x << "," << y << ") spacing " << spacing;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Spacings, ZigzagCoverage, ::testing::Values(10.0, 25.0, 40.0, 70.0));

}  // namespace
}  // namespace skyran::uav

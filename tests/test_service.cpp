// Tests for the TTI-level service simulator on lte::TrafficPlane: capacity,
// cell sharing, CBR queueing, CQI staleness, HARQ retransmissions in the
// hover-vs-fly throughput gap, and the duration contracts.
#include <gtest/gtest.h>

#include <cmath>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "mobility/deployment.hpp"
#include "sim/service.hpp"
#include "uav/trajectory.hpp"

namespace skyran::sim {
namespace {

World flat_world_with_ues(std::uint64_t seed, int n_ues) {
  WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kFlat;
  wc.seed = seed;
  World world(wc);
  for (int i = 0; i < n_ues; ++i)
    world.ue_positions().push_back({60.0 + 30.0 * i, 120.0, 1.5});
  return world;
}

/// Retransmissions per first transmission: how often the stale CQI loop
/// picked an MCS the true channel could not decode.
double retx_rate(const ServiceReport& r) {
  return r.traffic.harq_first_tx > 0 ? static_cast<double>(r.traffic.harq_retx) /
                                           static_cast<double>(r.traffic.harq_first_tx)
                                     : 0.0;
}

lte::TrafficSpec cbr(double rate_bps) {
  lte::TrafficSpec spec;
  spec.model = lte::TrafficModel::kCbr;
  spec.rate_bps = rate_bps;
  return spec;
}

TEST(ServiceTest, FullBufferApproachesAmcBound) {
  World world = flat_world_with_ues(1, 1);
  const geo::Vec3 uav{80.0, 120.0, 60.0};
  ServiceConfig cfg;
  cfg.duration_s = 2.0;
  cfg.fading_sigma_db = 0.0;  // static channel: no staleness possible
  geo::Mt19937_64 rng(2);
  const ServiceReport r = run_service_hovering(world, uav, {lte::TrafficSpec{}}, cfg, rng);
  const double bound = lte::throughput_bps(world.snr_db(uav, world.ue_positions()[0]),
                                           world.carrier());
  // Only the plane's residual BLER at the chosen MCS separates the cell
  // from the AMC bound.
  EXPECT_LE(r.traffic.aggregate_throughput_bps, bound * (1.0 + 1e-9));
  EXPECT_NEAR(r.traffic.aggregate_throughput_bps, bound, bound * 0.1);
  EXPECT_EQ(r.traffic.ttis, 2000);
  EXPECT_EQ(r.traffic.harq_drops, 0u);
  EXPECT_DOUBLE_EQ(r.mean_cqi_staleness_db, 0.0);
}

TEST(ServiceTest, CellSharedAcrossUes) {
  World world = flat_world_with_ues(3, 4);
  const geo::Vec3 uav{100.0, 120.0, 60.0};
  ServiceConfig cfg;
  cfg.duration_s = 1.0;
  cfg.fading_sigma_db = 0.0;
  geo::Mt19937_64 rng(4);
  const std::vector<lte::TrafficSpec> traffic(4, lte::TrafficSpec{});
  const ServiceReport r = run_service_hovering(world, uav, traffic, cfg, rng);
  // Equal-ish split under round robin on a flat world.
  EXPECT_EQ(r.traffic.ues, 4u);
  EXPECT_GT(r.traffic.fairness_jain, 0.98);
  EXPECT_NEAR(r.traffic.p50_throughput_bps, r.traffic.aggregate_throughput_bps / 4.0,
              r.traffic.aggregate_throughput_bps * 0.15 / 4.0);
}

TEST(ServiceTest, CbrUnderloadServedWithLowDelay) {
  World world = flat_world_with_ues(5, 1);
  const geo::Vec3 uav{70.0, 120.0, 60.0};
  ServiceConfig cfg;
  cfg.duration_s = 2.0;
  cfg.fading_sigma_db = 0.0;
  geo::Mt19937_64 rng(6);
  // Far below capacity.
  const ServiceReport r = run_service_hovering(world, uav, {cbr(1e6)}, cfg, rng);
  EXPECT_DOUBLE_EQ(r.traffic.offered_bits, 1e6 * 2.0);
  EXPECT_NEAR(r.traffic.served_bits, r.traffic.offered_bits, r.traffic.offered_bits * 0.05);
  EXPECT_LT(r.traffic.p99_delay_ms, 5.0);
}

TEST(ServiceTest, CbrOverloadQueues) {
  World world = flat_world_with_ues(7, 1);
  // Put the UE far away: capacity is low.
  world.ue_positions()[0] = {290.0, 290.0, 1.5};
  const geo::Vec3 uav{10.0, 10.0, 60.0};
  ServiceConfig cfg;
  cfg.duration_s = 1.0;
  geo::Mt19937_64 rng(8);
  // Far above any LTE-10MHz capacity.
  const ServiceReport r = run_service_hovering(world, uav, {cbr(60e6)}, cfg, rng);
  EXPECT_LT(r.traffic.served_bits, r.traffic.offered_bits * 0.9);
  EXPECT_GT(r.traffic.p50_delay_ms, 10.0);
}

TEST(ServiceTest, FlyingCostsThroughputOnRoughTerrain) {
  // Same neighborhood, motion as the only difference: hover at a point vs
  // orbit a 30 m circle around it at cruise speed.
  WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = 11;
  World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 5, 12);
  const std::vector<lte::TrafficSpec> traffic(5, lte::TrafficSpec{});
  ServiceConfig cfg;
  cfg.duration_s = 3.0;
  cfg.cqi_period_ms = 10.0;
  geo::Mt19937_64 rng(13);

  const geo::Vec2 anchor = world.area().center() + geo::Vec2{40.0, -30.0};
  const ServiceReport hover =
      run_service_hovering(world, {anchor, 60.0}, traffic, cfg, rng);

  std::vector<geo::Vec2> circle;
  for (int i = 0; i <= 24; ++i) {
    const double a = 2.0 * M_PI * i / 24.0;
    circle.push_back(anchor + geo::Vec2{30.0 * std::cos(a), 30.0 * std::sin(a)});
  }
  const ServiceReport fly = run_service_flying(
      world, uav::FlightPlan::at_altitude(geo::Path(circle), 60.0), traffic, cfg, rng);
  // Motion decorrelates fading inside the CQI loop: the flying cell's
  // channel knowledge is measurably staler and HARQ retransmissions rise.
  EXPECT_GT(fly.mean_cqi_staleness_db, hover.mean_cqi_staleness_db * 1.5);
  EXPECT_GT(retx_rate(fly), retx_rate(hover));
}

TEST(ServiceTest, Contracts) {
  World world = flat_world_with_ues(17, 2);
  ServiceConfig cfg;
  geo::Mt19937_64 rng(18);
  const std::vector<lte::TrafficSpec> two(2, lte::TrafficSpec{});
  EXPECT_THROW(run_service_hovering(world, {0, 0, 60}, {lte::TrafficSpec{}}, cfg, rng),
               ContractViolation);  // traffic count mismatch
  cfg.cqi_period_ms = 0.5;
  EXPECT_THROW(run_service_hovering(world, {0, 0, 60}, two, cfg, rng), ContractViolation);
}

TEST(ServiceTest, ZeroTtiDurationRejected) {
  // Regression: a duration that truncates to 0 TTIs used to run nothing and
  // report NaN throughput (0/0) instead of failing the contract.
  World world = flat_world_with_ues(19, 2);
  const std::vector<lte::TrafficSpec> two(2, lte::TrafficSpec{});
  geo::Mt19937_64 rng(20);
  ServiceConfig cfg;
  cfg.duration_s = 0.0005;  // under one 1 ms TTI
  EXPECT_THROW(run_service_hovering(world, {0, 0, 60}, two, cfg, rng), ContractViolation);
  // A one-waypoint plan has zero flight time, whatever the configured
  // duration.
  const uav::FlightPlan parked =
      uav::FlightPlan::at_altitude(geo::Path(std::vector<geo::Vec2>{{50.0, 50.0}}), 60.0);
  EXPECT_THROW(run_service_flying(world, parked, two, ServiceConfig{}, rng), ContractViolation);
  cfg.duration_s = 0.001;  // exactly one TTI is enough
  const ServiceReport one = run_service_hovering(world, {0, 0, 60}, two, cfg, rng);
  EXPECT_EQ(one.traffic.ttis, 1);
  EXPECT_TRUE(std::isfinite(one.traffic.aggregate_throughput_bps));
}

}  // namespace
}  // namespace skyran::sim

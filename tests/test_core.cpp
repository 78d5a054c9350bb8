// Tests for the SkyRan facade: configuration contracts, single-epoch
// behavior, REM/history reuse across epochs, the epoch trigger and the
// localization-mode ablations.
#include <gtest/gtest.h>

#include "core/skyran.hpp"
#include "geo/contract.hpp"
#include "mobility/deployment.hpp"
#include "mobility/model.hpp"
#include "sim/ground_truth.hpp"

namespace skyran::core {
namespace {

sim::World make_world(std::uint64_t seed, int ues = 4,
                      terrain::TerrainKind kind = terrain::TerrainKind::kCampus) {
  sim::WorldConfig wc;
  wc.terrain_kind = kind;
  wc.seed = seed;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), ues, seed + 1);
  return world;
}

SkyRanConfig fast_config() {
  SkyRanConfig cfg;
  cfg.measurement_budget_m = 500.0;
  cfg.localization_mode = LocalizationMode::kPerfect;  // keep unit tests fast
  return cfg;
}

TEST(SkyRanConfigTest, ContractsOnConstruction) {
  sim::World world = make_world(3);
  SkyRanConfig bad = fast_config();
  bad.epoch_drop_threshold = 0.0;
  EXPECT_THROW(SkyRan(world, bad, 1), ContractViolation);
  bad = fast_config();
  bad.rem_cell_m = 0.0;
  EXPECT_THROW(SkyRan(world, bad, 1), ContractViolation);
  // Bad IDW parameters fail here, not mid-sweep after a localization flight.
  bad = fast_config();
  bad.idw.k_neighbors = 0;
  EXPECT_THROW(SkyRan(world, bad, 1), ContractViolation);
  bad = fast_config();
  bad.idw.power = 0.0;
  EXPECT_THROW(SkyRan(world, bad, 1), ContractViolation);
  bad = fast_config();
  bad.idw.max_radius_m = -5.0;
  EXPECT_THROW(SkyRan(world, bad, 1), ContractViolation);
  bad = fast_config();
  bad.idw.background_blend_m = -1.0;
  EXPECT_THROW(SkyRan(world, bad, 1), ContractViolation);
}

TEST(SkyRanTest, EpochProducesCompleteReport) {
  sim::World world = make_world(3);
  SkyRan skyran(world, fast_config(), 7);
  const EpochReport r = skyran.run_epoch();
  EXPECT_EQ(r.epoch, 1);
  EXPECT_EQ(r.estimated_ue_positions.size(), 4u);
  EXPECT_GT(r.altitude_m, 0.0);
  EXPECT_GT(r.measurement_flight_m, 0.0);
  EXPECT_LE(r.measurement_flight_m, 500.0 + 1e-6);
  EXPECT_GT(r.total_flight_m, r.measurement_flight_m - 1e-9);
  EXPECT_GT(r.flight_time_s, 0.0);
  EXPECT_TRUE(world.area().contains(r.position));
  EXPECT_GT(r.served_mean_throughput_bps, 0.0);
  EXPECT_EQ(skyran.epochs_run(), 1);
  EXPECT_EQ(skyran.rem_bank().ue_count(), 4u);
  EXPECT_TRUE(skyran.rem_bank().estimates_current());
  EXPECT_LT(skyran.battery().remaining_fraction(), 1.0);
}

TEST(SkyRanTest, NoUesRejected) {
  sim::World world = make_world(3);
  world.ue_positions().clear();
  SkyRan skyran(world, fast_config(), 7);
  EXPECT_THROW(skyran.run_epoch(), ContractViolation);
}

TEST(SkyRanTest, PerfectLocalizationReturnsTruth) {
  sim::World world = make_world(4);
  SkyRan skyran(world, fast_config(), 8);
  const EpochReport r = skyran.run_epoch();
  for (std::size_t i = 0; i < r.estimated_ue_positions.size(); ++i)
    EXPECT_LT(r.estimated_ue_positions[i].dist(world.ue_positions()[i].xy()), 1e-9);
}

TEST(SkyRanTest, GaussianErrorModeInjectsConfiguredError) {
  sim::World world = make_world(4, 8);
  SkyRanConfig cfg = fast_config();
  cfg.localization_mode = LocalizationMode::kGaussianError;
  cfg.injected_error_m = 15.0;
  SkyRan skyran(world, cfg, 8);
  const EpochReport r = skyran.run_epoch();
  double total = 0.0;
  for (std::size_t i = 0; i < r.estimated_ue_positions.size(); ++i)
    total += r.estimated_ue_positions[i].dist(world.ue_positions()[i].xy());
  const double mean_err = total / 8.0;
  EXPECT_GT(mean_err, 4.0);
  EXPECT_LT(mean_err, 40.0);
}

TEST(SkyRanTest, AltitudeLockedAfterFirstEpoch) {
  sim::World world = make_world(5);
  SkyRan skyran(world, fast_config(), 9);
  const EpochReport r1 = skyran.run_epoch();
  const EpochReport r2 = skyran.run_epoch();
  EXPECT_DOUBLE_EQ(r1.altitude_m, r2.altitude_m);
  EXPECT_GT(r1.altitude_flight_m, 0.0);
  EXPECT_DOUBLE_EQ(r2.altitude_flight_m, 0.0);  // no second search
}

TEST(SkyRanTest, RemsReusedWhenUesStay) {
  sim::World world = make_world(5);
  SkyRan skyran(world, fast_config(), 9);
  const EpochReport r1 = skyran.run_epoch();
  for (const bool reused : r1.reused_rem) EXPECT_FALSE(reused);  // fresh world
  const EpochReport r2 = skyran.run_epoch();  // UEs unchanged
  for (const bool reused : r2.reused_rem) EXPECT_TRUE(reused);
  EXPECT_GE(skyran.rem_store().size(), 1u);
}

TEST(SkyRanTest, MovedUeGetsFreshRem) {
  sim::World world = make_world(5);
  SkyRan skyran(world, fast_config(), 9);
  skyran.run_epoch();
  // Teleport UE 0 far away (> reuse radius from anything mapped).
  world.ue_positions()[0] =
      mobility::random_walkable_position(world.terrain(), 999);
  const EpochReport r2 = skyran.run_epoch();
  // Most stationary UEs reuse; at least the stationary ones do.
  int reused = 0;
  for (std::size_t i = 1; i < r2.reused_rem.size(); ++i) reused += r2.reused_rem[i];
  EXPECT_GE(reused, 2);
}

TEST(SkyRanTest, SecondEpochCheaperThroughHistory) {
  sim::World world = make_world(6);
  SkyRanConfig cfg = fast_config();
  cfg.measurement_budget_m = 0.0;  // let the planner choose freely
  SkyRan skyran(world, cfg, 10);
  const EpochReport r1 = skyran.run_epoch();
  const EpochReport r2 = skyran.run_epoch();
  // With full history and unchanged UEs, the info-to-cost of the chosen tour
  // drops (everything nearby is explored): expect a different, usually
  // cheaper tour. We assert the planner at least responds to history.
  EXPECT_NE(r1.info_to_cost, r2.info_to_cost);
}

TEST(SkyRanTest, TriggerFiresWhenUesScatter) {
  sim::World world = make_world(7, 5);
  SkyRan skyran(world, fast_config(), 11);
  skyran.run_epoch();
  EXPECT_FALSE(skyran.should_trigger_epoch());  // nothing changed yet
  EXPECT_NEAR(skyran.served_performance_ratio(), 1.0, 1e-9);
  // Scatter every UE across the area: served throughput collapses.
  mobility::EpochRelocateMobility mob(world.terrain(), world.ue_positions(), 1.0, 12);
  for (int i = 0; i < 8 && !skyran.should_trigger_epoch(); ++i) {
    mob.relocate_epoch();
    world.ue_positions() = mob.positions();
  }
  EXPECT_TRUE(skyran.should_trigger_epoch());
  // Running a new epoch restores performance tracking.
  skyran.run_epoch();
  EXPECT_NEAR(skyran.served_performance_ratio(), 1.0, 1e-9);
}

TEST(SkyRanTest, PhyLocalizationModeRunsEndToEnd) {
  sim::World world = make_world(8, 3);
  SkyRanConfig cfg = fast_config();
  cfg.localization_mode = LocalizationMode::kPhy;
  SkyRan skyran(world, cfg, 13);
  const EpochReport r = skyran.run_epoch();
  EXPECT_GT(r.localization_flight_m, 10.0);
  // PHY estimates are imperfect but bounded.
  for (std::size_t i = 0; i < r.estimated_ue_positions.size(); ++i)
    EXPECT_LT(r.estimated_ue_positions[i].dist(world.ue_positions()[i].xy()), 120.0);
}

TEST(SkyRanTest, FlightAccumulatesAcrossEpochs) {
  sim::World world = make_world(9);
  SkyRan skyran(world, fast_config(), 14);
  const EpochReport r1 = skyran.run_epoch();
  const EpochReport r2 = skyran.run_epoch();
  EXPECT_NEAR(skyran.total_flight_m(), r1.total_flight_m + r2.total_flight_m, 1e-9);
}

TEST(SkyRanTest, PlacementIsFeasible) {
  sim::World world = make_world(10, 5, terrain::TerrainKind::kNyc);
  SkyRan skyran(world, fast_config(), 15);
  const EpochReport r = skyran.run_epoch();
  EXPECT_LT(world.terrain().surface_height(r.position) + 10.0, r.altitude_m + 1e-6);
}

/// Objective sweep: every placement objective runs the full loop.
class ObjectiveSweep : public ::testing::TestWithParam<rem::PlacementObjective> {};

TEST_P(ObjectiveSweep, EpochCompletes) {
  sim::World world = make_world(11);
  SkyRanConfig cfg = fast_config();
  cfg.objective = GetParam();
  SkyRan skyran(world, cfg, 16);
  const EpochReport r = skyran.run_epoch();
  EXPECT_TRUE(world.area().contains(r.position));
}

INSTANTIATE_TEST_SUITE_P(Objectives, ObjectiveSweep,
                         ::testing::Values(rem::PlacementObjective::kMaxMin,
                                           rem::PlacementObjective::kMaxMean,
                                           rem::PlacementObjective::kMaxWeighted,
                                           rem::PlacementObjective::kMaxCoverage));

}  // namespace
}  // namespace skyran::core

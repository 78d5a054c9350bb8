// Integration tests: the complete SkyRAN pipeline against ground truth and
// baselines, across terrains and over multiple dynamic epochs. These assert
// the paper's qualitative claims end to end (with loose bounds so they stay
// robust to seeds).
#include <gtest/gtest.h>

#include "core/skyran.hpp"
#include "geo/mt19937.hpp"
#include "geo/stats.hpp"
#include "mobility/deployment.hpp"
#include "mobility/model.hpp"
#include "sim/baselines.hpp"
#include "sim/ground_truth.hpp"
#include "uav/trajectory.hpp"

namespace skyran {
namespace {

sim::World make_world(terrain::TerrainKind kind, std::uint64_t seed, int ues) {
  sim::WorldConfig wc;
  wc.terrain_kind = kind;
  wc.seed = seed;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), ues, seed + 1);
  return world;
}

TEST(IntegrationTest, SkyranNearOptimalOnCampus) {
  // Paper headline: 0.9-0.95x of optimal on the testbed. Median over seeds
  // must clear 0.85 here.
  std::vector<double> rels;
  for (std::uint64_t s = 0; s < 5; ++s) {
    sim::World world = make_world(terrain::TerrainKind::kCampus, 100 + s, 5);
    core::SkyRanConfig cfg;
    cfg.measurement_budget_m = 800.0;
    cfg.localization_mode = core::LocalizationMode::kGaussianError;
    cfg.injected_error_m = 8.0;  // the PHY pipeline's typical accuracy
    core::SkyRan skyran(world, cfg, 200 + s);
    const core::EpochReport r = skyran.run_epoch();
    const sim::GroundTruth truth = sim::compute_ground_truth(world, r.altitude_m, 5.0);
    rels.push_back(std::min(1.0, sim::relative_throughput(world, truth, r.position)));
  }
  EXPECT_GT(geo::median(rels), 0.85);
}

TEST(IntegrationTest, SkyranBeatsUniformAtEqualBudget) {
  // Paper: ~2x over Uniform at small budgets. Require a clear median win.
  std::vector<double> sky, uni;
  const double budget = 400.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    sim::World world = make_world(terrain::TerrainKind::kCampus, 300 + s, 5);
    core::SkyRanConfig cfg;
    cfg.measurement_budget_m = budget;
    cfg.localization_mode = core::LocalizationMode::kGaussianError;
    cfg.injected_error_m = 8.0;
    core::SkyRan skyran(world, cfg, 400 + s);
    const core::EpochReport r = skyran.run_epoch();
    const sim::GroundTruth truth = sim::compute_ground_truth(world, r.altitude_m, 5.0);
    sky.push_back(sim::relative_throughput(world, truth, r.position));

    sim::UniformConfig uc;
    uc.altitude_m = r.altitude_m;
    uc.budget_m = budget;
    const sim::SchemeResult u = sim::run_uniform(world, uc, 500 + s);
    uni.push_back(sim::relative_throughput(world, truth, u.position));
  }
  EXPECT_GT(geo::median(sky), geo::median(uni));
}

TEST(IntegrationTest, RemAccuracyBeatsFsplModel) {
  // Fig. 4: the data-driven REM beats the free-space model map.
  sim::World world = make_world(terrain::TerrainKind::kCampus, 700, 3);
  const double altitude = 50.0;
  const sim::GroundTruth truth = sim::compute_ground_truth(world, altitude, 4.0);

  // Measured REM from a generous flight.
  rem::RemBank rems(world.area(), 4.0, altitude);
  for (const geo::Vec3& ue : world.ue_positions()) rems.add_ue(ue);
  const geo::Path track = uav::zigzag(world.area().inflated(-10.0), 40.0);
  geo::Mt19937_64 rng(7);
  sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(track, altitude), rems, {},
                              rng);
  rems.estimate_all();

  // Model-based maps: FSPL backgrounds with nothing measured.
  const rf::FsplChannel fspl(world.channel().frequency_hz());
  rem::RemBank models(world.area(), 4.0, altitude);
  for (const geo::Vec3& ue : world.ue_positions())
    models.seed_from_model(models.add_ue(ue), fspl, world.budget());
  models.estimate_all();

  double measured_err = 0.0;
  double model_err = 0.0;
  for (std::size_t i = 0; i < rems.ue_count(); ++i) {
    measured_err += rem::median_abs_error_db(rems.estimate_grid(i), truth.per_ue_rems[i]);
    model_err += rem::median_abs_error_db(models.estimate_grid(i), truth.per_ue_rems[i]);
  }
  EXPECT_LT(measured_err, model_err);
}

TEST(IntegrationTest, DynamicEpochsRecoverPerformance) {
  sim::World world = make_world(terrain::TerrainKind::kCampus, 900, 6);
  mobility::EpochRelocateMobility mob(world.terrain(), world.ue_positions(), 0.5, 901);
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 600.0;
  cfg.localization_mode = core::LocalizationMode::kGaussianError;
  cfg.injected_error_m = 8.0;
  core::SkyRan skyran(world, cfg, 902);

  std::vector<double> rels;
  for (int epoch = 0; epoch < 4; ++epoch) {
    if (epoch > 0) {
      mob.relocate_epoch();
      world.ue_positions() = mob.positions();
    }
    const core::EpochReport r = skyran.run_epoch();
    const sim::GroundTruth truth = sim::compute_ground_truth(world, r.altitude_m, 5.0);
    rels.push_back(std::min(1.0, sim::relative_throughput(world, truth, r.position)));
  }
  // Each epoch re-optimizes: the median across dynamic epochs stays healthy.
  EXPECT_GT(geo::median(rels), 0.7);
  EXPECT_GE(skyran.rem_store().size(), 6u);  // history accumulated
}

/// Terrain sweep: one full epoch completes on every archetype.
class TerrainSweep : public ::testing::TestWithParam<terrain::TerrainKind> {};

TEST_P(TerrainSweep, EpochCompletesEverywhere) {
  sim::WorldConfig wc;
  wc.terrain_kind = GetParam();
  wc.seed = 21;
  wc.cell_size_m = GetParam() == terrain::TerrainKind::kLarge ? 4.0 : 1.0;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_uniform(world.terrain(), 4, 22);
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 600.0;
  cfg.rem_cell_m = GetParam() == terrain::TerrainKind::kLarge ? 12.0 : 5.0;
  cfg.localization_mode = core::LocalizationMode::kPerfect;
  core::SkyRan skyran(world, cfg, 23);
  const core::EpochReport r = skyran.run_epoch();
  EXPECT_TRUE(world.area().contains(r.position));
  EXPECT_GT(r.altitude_m, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Terrains, TerrainSweep,
                         ::testing::Values(terrain::TerrainKind::kFlat,
                                           terrain::TerrainKind::kCampus,
                                           terrain::TerrainKind::kRural,
                                           terrain::TerrainKind::kNyc,
                                           terrain::TerrainKind::kLarge));

}  // namespace
}  // namespace skyran

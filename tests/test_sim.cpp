// Tests for the simulation harness: world, ground truth, measurement-flight
// execution, the baseline schemes and the table printer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "geo/mt19937.hpp"
#include "kernels/kernels.hpp"
#include "mobility/deployment.hpp"
#include "sim/baselines.hpp"
#include "sim/ground_truth.hpp"
#include "sim/measurement.hpp"
#include "sim/table.hpp"
#include "sim/world.hpp"
#include "uav/trajectory.hpp"

namespace skyran::sim {
namespace {

World make_campus_world(std::uint64_t seed, int ues = 4) {
  WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = seed;
  World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), ues, seed + 1);
  return world;
}

TEST(WorldTest, SnrConsistentWithChannelAndBudget) {
  const World world = make_campus_world(5);
  const geo::Vec3 uav{150.0, 150.0, 60.0};
  const geo::Vec3 ue = world.ue_positions()[0];
  const double pl = world.channel().path_loss_db(uav, ue);
  EXPECT_DOUBLE_EQ(world.snr_db(uav, ue), world.budget().snr_db(pl));
  EXPECT_DOUBLE_EQ(world.link_throughput_bps(uav, ue),
                   lte::throughput_bps(world.snr_db(uav, ue), world.carrier()));
}

TEST(WorldTest, MeanAndMinAggregates) {
  World world = make_campus_world(5, 3);
  const geo::Vec3 uav{150.0, 150.0, 60.0};
  double sum = 0.0;
  double mn = 1e18;
  for (const geo::Vec3& ue : world.ue_positions()) {
    sum += world.link_throughput_bps(uav, ue);
    mn = std::min(mn, world.snr_db(uav, ue));
  }
  EXPECT_DOUBLE_EQ(world.mean_throughput_bps(uav), sum / 3.0);
  EXPECT_DOUBLE_EQ(world.min_snr_db(uav), mn);
  world.ue_positions().clear();
  EXPECT_THROW(world.mean_throughput_bps(uav), ContractViolation);
}

TEST(WorldTest, ExternalTerrainConstructor) {
  auto t = std::make_shared<const terrain::Terrain>(terrain::make_flat(100.0));
  WorldConfig wc;
  const World world(t, wc);
  EXPECT_DOUBLE_EQ(world.area().width(), 100.0);
  EXPECT_THROW(World(nullptr, wc), ContractViolation);
}

TEST(GroundTruthTest, RemMatchesDirectQuery) {
  const World world = make_campus_world(6);
  const geo::Vec3 ue = world.ue_positions()[0];
  const geo::Grid2D<double> rem = ground_truth_rem(world, ue, 60.0, 10.0);
  const geo::CellIndex c{7, 11};
  EXPECT_DOUBLE_EQ(rem.at(c), world.snr_db(geo::Vec3{rem.center_of(c), 60.0}, ue));
}

TEST(GroundTruthTest, OptimalBeatsRandomPositions) {
  const World world = make_campus_world(6);
  const GroundTruth truth = compute_ground_truth(world, 60.0, 10.0);
  // The max-min optimum's min-SNR beats arbitrary positions' min-SNR.
  for (const geo::Vec2 p : {geo::Vec2{20.0, 20.0}, geo::Vec2{280.0, 280.0}}) {
    EXPECT_GE(truth.optimal.objective_snr_db + 1e-9,
              world.min_snr_db(geo::Vec3{p, 60.0}) - 1.0);
  }
  // Max-mean throughput bound dominates the max-min position's throughput.
  EXPECT_GE(truth.max_mean_throughput_bps + 1e-6, truth.optimal_mean_throughput_bps);
  EXPECT_DOUBLE_EQ(truth.altitude_m, 60.0);
}

TEST(GroundTruthTest, RelativeThroughputAtOptimumIsOne) {
  const World world = make_campus_world(7);
  const GroundTruth truth = compute_ground_truth(world, 60.0, 10.0);
  EXPECT_NEAR(relative_throughput(world, truth, truth.optimal.position), 1.0, 1e-9);
}

/// Bank over `world` at 5 m cells and 60 m holding `ues`.
rem::RemBank bank_for(const World& world, std::span<const geo::Vec3> ues) {
  rem::RemBank bank(world.area(), 5.0, 60.0);
  for (const geo::Vec3& ue : ues) bank.add_ue(ue);
  return bank;
}

TEST(MeasurementTest, ReportsLandInRems) {
  const World world = make_campus_world(8);
  rem::RemBank rems = bank_for(world, world.ue_positions());
  const geo::Path track({{50.0, 50.0}, {250.0, 50.0}});
  const uav::FlightPlan plan = uav::FlightPlan::at_altitude(track, 60.0);
  geo::Mt19937_64 rng(9);
  const std::size_t reports = run_measurement_flight(world, plan, rems, {}, rng);
  EXPECT_GT(reports, 100u);  // 200 m at 30 km/h and 100 Hz -> ~2400 reports
  EXPECT_FALSE(rems.estimates_current());  // deposits mark cells dirty
  for (std::size_t i = 0; i < rems.ue_count(); ++i) {
    EXPECT_GT(rems.measured_cells(i), 30u);
    // Measured cells hug the flown row (y = 50 +- cell).
    for (int iy = 0; iy < rems.ny(); ++iy)
      for (int ix = 0; ix < rems.nx(); ++ix)
        if (rems.measurement_count(i, {ix, iy}) > 0) {
          EXPECT_NEAR(iy * 5.0 + 2.5, 50.0, 5.0);
        }
  }
  rems.estimate_all();  // must not throw
}

TEST(MeasurementTest, MeasuredSnrNearTruth) {
  // Flat terrain: no obstruction edges, so a cell's center and the flight
  // line through it see near-identical channels.
  WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kFlat;
  wc.seed = 8;
  World world(wc);
  world.ue_positions() = {geo::Vec3{120.0, 120.0, 1.5}};
  rem::RemBank rems = bank_for(world, world.ue_positions());
  const geo::Path track({{50.0, 150.0}, {250.0, 150.0}});
  geo::Mt19937_64 rng(10);
  MeasurementConfig cfg;
  cfg.fading_sigma_db = 0.5;
  run_measurement_flight(world, uav::FlightPlan::at_altitude(track, 60.0), rems, cfg, rng);
  // Compare a measured cell with the direct channel query.
  rems.estimate_all();
  const geo::FieldView<const double> est = rems.estimate(0);
  const geo::Vec2 probe{150.0, 150.0};
  const auto cell = est.cell_of(probe);
  const double measured = est.at(cell);
  const double truth =
      world.snr_db(geo::Vec3{est.center_of(cell), 60.0}, world.ue_positions()[0]);
  EXPECT_NEAR(measured, truth, 2.0);
}

TEST(MeasurementTest, Contracts) {
  World world = make_campus_world(8);
  const uav::FlightPlan plan =
      uav::FlightPlan::at_altitude(geo::Path({{0.0, 0.0}, {10.0, 0.0}}), 60.0);
  geo::Mt19937_64 rng(1);
  const std::vector<geo::Vec3> three{world.ue_positions()[0], world.ue_positions()[1],
                                     world.ue_positions()[1]};
  rem::RemBank wrong_count = bank_for(world, three);
  ASSERT_NE(world.ue_positions().size(), 3u);
  EXPECT_THROW(run_measurement_flight(world, plan, wrong_count, {}, rng), ContractViolation);
  MeasurementConfig no_rate;
  no_rate.report_rate_hz = 0.0;
  rem::RemBank rems = bank_for(world, world.ue_positions());
  EXPECT_THROW(run_measurement_flight(world, plan, rems, no_rate, rng), ContractViolation);
  world.ue_positions().clear();
  rem::RemBank none = bank_for(world, {});
  EXPECT_THROW(run_measurement_flight(world, plan, none, {}, rng), ContractViolation);
}

/// FNV-1a over every cell accumulator of `bank`: the report count, then the
/// measured mean's bits where the cell was measured.
std::uint64_t bank_digest(const rem::RemBank& bank) {
  geo::Fnv1a h;
  for (std::size_t i = 0; i < bank.ue_count(); ++i)
    for (int iy = 0; iy < bank.ny(); ++iy)
      for (int ix = 0; ix < bank.nx(); ++ix) {
        const geo::CellIndex c{ix, iy};
        h.pod(bank.measurement_count(i, c));
        if (const std::optional<double> snr = bank.measured_snr(i, c)) h.pod(*snr);
      }
  return h.value();
}

TEST(MeasurementTest, FaultedRayTracedFlightPinned) {
  // The bank a faulted flight over the ray-traced campus leaves, bit for bit:
  // wind drift moves where reports land, an SNR sag shifts their values and a
  // backhaul outage drops them (a dropped report still draws its fading).
  const World world = make_campus_world(8);
  rem::RemBank rems = bank_for(world, world.ue_positions());
  const geo::Path track({{40.0, 60.0}, {200.0, 60.0}, {200.0, 140.0}});
  FaultPlan plan;
  plan.add({FaultKind::kWindDrift, 3.0, 9.0, 2.0, 0.7})
      .add({FaultKind::kSrsSnrSag, 6.0, 14.0, 7.5, 0.0})
      .add({FaultKind::kBackhaulOutage, 12.0, 17.0, 0.0, 0.0});
  FaultInjector faults(plan);
  geo::Mt19937_64 rng(21);
  const std::size_t reports = run_measurement_flight(
      world, uav::FlightPlan::at_altitude(track, 60.0), rems, {}, rng, &faults, 1.5);
  EXPECT_EQ(reports, 2881u);
  EXPECT_EQ(rng(), 0xc966b3fdd92b8282u);  // one fading draw per (report x UE), dropped ones too
  EXPECT_EQ(bank_digest(rems), 0xa9682a7d974d14bfu);
  for (std::size_t i = 0; i < rems.ue_count(); ++i) EXPECT_EQ(rems.measured_cells(i), 44u);
  // A cell on the first leg, inside the sag window and drifted one row north.
  EXPECT_EQ(rems.measurement_count(0, {24, 13}), 60);
  EXPECT_EQ(rems.measured_snr(0, {24, 13}).value_or(0.0), 0x1.b5cb6c19dfa19p+4);
}

TEST(BaselineTest, UniformSpendsItsBudget) {
  const World world = make_campus_world(11);
  UniformConfig cfg;
  cfg.budget_m = 500.0;
  const SchemeResult r = run_uniform(world, cfg, 12);
  EXPECT_NEAR(r.flight_length_m, 500.0, 1.0);
  ASSERT_TRUE(r.rems.has_value());
  EXPECT_EQ(r.rems->ue_count(), world.ue_positions().size());
  EXPECT_TRUE(r.rems->estimates_current());
  EXPECT_TRUE(world.area().contains(r.position));
  // Placement is feasible (not on the office roof).
  EXPECT_LT(world.terrain().surface_height(r.position) + 10.0, cfg.altitude_m + 1e-9);
}

TEST(BaselineTest, UniformDeterministicInSeed) {
  const World world = make_campus_world(11);
  UniformConfig cfg;
  const SchemeResult a = run_uniform(world, cfg, 12);
  const SchemeResult b = run_uniform(world, cfg, 12);
  EXPECT_EQ(a.position, b.position);
}

TEST(BaselineTest, UniformGoldenDigest) {
  // FNV-1a over the chosen position and every estimate cell of every UE:
  // pins the whole measure -> interpolate -> place chain of the baseline.
  // Scalar kernels: the SIMD tolerance kernels may move the last bits.
  const kernels::ScopedScalarKernels scalar;
  const World world = make_campus_world(11);
  UniformConfig cfg;
  cfg.budget_m = 500.0;
  const SchemeResult r = run_uniform(world, cfg, 12);
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](double v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  mix(r.position.x);
  mix(r.position.y);
  std::size_t cells = 0;
  for (std::size_t i = 0; i < r.rems->ue_count(); ++i) {
    const geo::FieldView<const double> est = r.rems->estimate(i);
    for (std::size_t j = 0; j < est.size(); ++j) {
      mix(est[j]);
      ++cells;
    }
  }
  EXPECT_EQ(cells, 14400u);
  EXPECT_EQ(h, 0x871536c9d570b5e3ULL);
}

TEST(BaselineTest, CentroidIsGeometricMean) {
  const std::vector<geo::Vec2> ues{{0.0, 0.0}, {100.0, 0.0}, {50.0, 90.0}};
  const SchemeResult r = run_centroid(ues, 60.0, geo::Rect::square(300.0));
  EXPECT_NEAR(r.position.x, 50.0, 1e-9);
  EXPECT_NEAR(r.position.y, 30.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.flight_length_m, 0.0);
  EXPECT_FALSE(r.rems.has_value());
  EXPECT_THROW(run_centroid({}, 60.0, geo::Rect::square(10.0)), ContractViolation);
}

TEST(BaselineTest, CentroidClampedToArea) {
  const std::vector<geo::Vec2> ues{{-50.0, -50.0}, {-60.0, -40.0}};
  const SchemeResult r = run_centroid(ues, 60.0, geo::Rect::square(100.0));
  EXPECT_TRUE(geo::Rect::square(100.0).contains(r.position));
}

TEST(BaselineTest, RandomInsideArea) {
  const World world = make_campus_world(11);
  for (int s = 0; s < 5; ++s)
    EXPECT_TRUE(world.area().contains(run_random(world, 60.0, s).position));
}

TEST(TableTest, AlignsAndFormats) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.234, 2)});
  t.add_row({"very-long-name", Table::num(10.0, 0)});
  t.add_row({"short"});  // missing cell prints empty
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("very-long-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(Table::num(2.5, 0), "2");  // bankers-free fixed formatting
  std::ostringstream banner;
  print_banner(banner, "Figure 1");
  EXPECT_NE(banner.str().find("== Figure 1 =="), std::string::npos);
}

/// Uniform baseline budget sweep: more budget never hurts REM coverage.
class UniformBudget : public ::testing::TestWithParam<double> {};

TEST_P(UniformBudget, MeasuredCellsGrowWithBudget) {
  const World world = make_campus_world(13, 2);
  UniformConfig small;
  small.budget_m = GetParam();
  UniformConfig big;
  big.budget_m = GetParam() * 2.0;
  const SchemeResult a = run_uniform(world, small, 3);
  const SchemeResult b = run_uniform(world, big, 3);
  EXPECT_GE(b.rems->measured_cells(0) + 5, a.rems->measured_cells(0));
}

INSTANTIATE_TEST_SUITE_P(Budgets, UniformBudget, ::testing::Values(200.0, 400.0, 800.0));

}  // namespace
}  // namespace skyran::sim

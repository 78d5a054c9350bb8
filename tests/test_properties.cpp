// Randomized property tests: invariants that must hold for arbitrary seeds,
// exercised across a seed sweep (TEST_P). These complement the per-module
// example-based tests with broader input coverage.
#include <gtest/gtest.h>

#include <random>

#include "geo/mt19937.hpp"
#include "localization/multilateration.hpp"
#include "lte/ranging.hpp"
#include "lte/srs_channel.hpp"
#include "lte/traffic_plane.hpp"
#include "mobility/deployment.hpp"
#include "rem/gradient.hpp"
#include "rem/kriging.hpp"
#include "rem/placement.hpp"
#include "rem/planner.hpp"
#include "rem/tsp.hpp"
#include "rf/units.hpp"
#include "sim/measurement.hpp"
#include "sim/world.hpp"
#include "uav/trajectory.hpp"

namespace skyran {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::uint64_t seed() const { return GetParam(); }
};

TEST_P(SeedSweep, PlannerToursStayInsideAreaAndBudget) {
  geo::Mt19937_64 rng(seed());
  std::uniform_real_distribution<double> u(5.0, 195.0);
  rem::RemBank map(geo::Rect::square(200.0), 5.0, 60.0);
  const rf::FsplChannel fspl(2.6e9);
  map.seed_from_model(map.add_ue({100.0, 100.0, 1.5}), fspl, rf::LinkBudget{});
  std::normal_distribution<double> g(10.0, 8.0);
  for (int i = 0; i < 300; ++i) map.add_measurement(0, {u(rng), u(rng)}, g(rng));

  const double budget_m = 100.0 + 50.0 * (seed() % 7);
  map.estimate_all();
  const rem::PlannedTrajectory plan =
      rem::plan_measurement_trajectory(map, {{}}, {100.0, 100.0}, budget_m, seed());
  EXPECT_LE(plan.cost_m, budget_m + 1e-6);
  for (const geo::Vec2 p : plan.path.points())
    EXPECT_TRUE(map.area().contains(p)) << p;
}

TEST_P(SeedSweep, SchedulerConservesPrbs) {
  geo::Mt19937_64 rng(seed());
  std::uniform_real_distribution<double> snr(-20.0, 35.0);
  std::uniform_real_distribution<double> offset(-15.0, 5.0);
  std::uniform_int_distribution<int> n_ues(1, 12);
  lte::TrafficPlaneConfig cfg;
  cfg.policy = seed() % 2 == 0 ? lte::SchedulerPolicy::kRoundRobin
                               : lte::SchedulerPolicy::kProportionalFair;
  cfg.seed = seed();
  lte::TrafficPlane plane(cfg);
  // Backlogged (full-buffer) and idle (0 bit/s CBR) UEs, fresh CQI reports
  // and true-channel offsets every TTI so HARQ retransmissions compete with
  // new transmissions for PRBs.
  const int n = n_ues(rng);
  for (int i = 0; i < n; ++i) {
    lte::TrafficSpec spec;
    if ((rng() & 1) != 0) {
      spec.model = lte::TrafficModel::kCbr;
      spec.rate_bps = 0.0;
    }
    plane.add_ue(static_cast<std::uint32_t>(61 + i), snr(rng), spec);
  }
  for (int t = 0; t < 30; ++t) {
    for (std::size_t i = 0; i < plane.ue_count(); ++i) {
      plane.set_snr(i, snr(rng));
      plane.set_snr_offset_db(i, offset(rng));
    }
    plane.run_ttis(1);
    const lte::TtiDebug& d = plane.last_tti();
    int total = 0;
    for (const std::uint16_t prb : plane.last_tti_prbs()) total += prb;
    EXPECT_EQ(total, d.prb_allocated);
    EXPECT_LE(d.prb_allocated, d.prb_total);
  }
}

TEST_P(SeedSweep, IdwEstimateBoundedBySamples) {
  geo::Mt19937_64 rng(seed());
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> val(-30.0, 40.0);
  std::vector<rem::IdwSample> samples;
  double lo = 1e18;
  double hi = -1e18;
  for (int i = 0; i < 40; ++i) {
    const double v = val(rng);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    samples.push_back({{u(rng), u(rng)}, v});
  }
  const rem::IdwInterpolator idw(samples, geo::Rect::square(100.0));
  for (int q = 0; q < 50; ++q) {
    const double e = *idw.estimate({u(rng), u(rng)}, 8, 2.0, 1e9);
    EXPECT_GE(e, lo - 1e-9);
    EXPECT_LE(e, hi + 1e-9);
  }
}

TEST_P(SeedSweep, KrigingExactAtEverySample) {
  geo::Mt19937_64 rng(seed());
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> val(-10.0, 10.0);
  std::vector<rem::IdwSample> samples;
  for (int i = 0; i < 25; ++i) samples.push_back({{u(rng), u(rng)}, val(rng)});
  const rem::KrigingInterpolator k(samples, geo::Rect::square(100.0), rem::Variogram{});
  for (const rem::IdwSample& s : samples)
    EXPECT_NEAR(*k.estimate(s.position), s.value, 1e-6);
}

TEST_P(SeedSweep, MinMapDominatedByEveryInput) {
  geo::Mt19937_64 rng(seed());
  std::normal_distribution<double> g(5.0, 10.0);
  std::vector<geo::Grid2D<double>> maps;
  for (int m = 0; m < 4; ++m) {
    geo::Grid2D<double> grid(geo::Rect::square(60.0), 10.0, 0.0);
    for (double& v : grid.raw()) v = g(rng);
    maps.push_back(std::move(grid));
  }
  const std::vector<geo::FieldView<const double>> views = geo::views_of(maps);
  const geo::Grid2D<double> mn = rem::min_snr_map(views);
  const geo::Grid2D<double> mean = rem::mean_snr_map(views);
  for (std::size_t j = 0; j < mn.raw().size(); ++j) {
    for (const auto& m : maps) EXPECT_LE(mn.raw()[j], m.raw()[j] + 1e-12);
    EXPECT_GE(mean.raw()[j], mn.raw()[j] - 1e-12);
  }
}

TEST_P(SeedSweep, TspVisitsEveryNodeOnce) {
  geo::Mt19937_64 rng(seed());
  std::uniform_real_distribution<double> u(0.0, 300.0);
  std::vector<geo::Vec2> nodes;
  for (int i = 0; i < 14; ++i) nodes.push_back({u(rng), u(rng)});
  const geo::Path tour = rem::plan_tour({u(rng), u(rng)}, nodes);
  ASSERT_EQ(tour.size(), nodes.size() + 1);
  for (const geo::Vec2 n : nodes) {
    bool found = false;
    for (std::size_t i = 1; i < tour.size(); ++i)
      found = found || tour.points()[i] == n;
    EXPECT_TRUE(found);
  }
  // 2-opt never does worse than visiting in the given order.
  std::vector<geo::Vec2> given{tour.points()[0]};
  given.insert(given.end(), nodes.begin(), nodes.end());
  EXPECT_LE(tour.length(), geo::Path(given).length() + 1e-9);
}

TEST_P(SeedSweep, ChannelIsSymmetricAndFinite) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kNyc;
  wc.seed = seed();
  const sim::World world(wc);
  geo::Mt19937_64 rng(seed() ^ 0x77);
  std::uniform_real_distribution<double> u(5.0, 245.0);
  std::uniform_real_distribution<double> z(1.5, 120.0);
  for (int i = 0; i < 40; ++i) {
    const geo::Vec3 a{u(rng), u(rng), z(rng)};
    const geo::Vec3 b{u(rng), u(rng), z(rng)};
    const double ab = world.channel().path_loss_db(a, b);
    EXPECT_DOUBLE_EQ(ab, world.channel().path_loss_db(b, a));
    EXPECT_TRUE(std::isfinite(ab));
    EXPECT_GT(ab, 30.0);   // at least near-field FSPL
    EXPECT_LT(ab, 250.0);  // capped obstruction keeps losses bounded
  }
}

TEST_P(SeedSweep, TofInvertsRandomDelays) {
  lte::SrsConfig cfg;
  const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
  const lte::TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(seed());
  std::uniform_real_distribution<double> dist(20.0, 400.0);
  for (int i = 0; i < 10; ++i) {
    const double d = dist(rng);
    lte::SrsChannelParams ch;
    ch.delay_s = d / rf::kSpeedOfLight;
    ch.snr_db = 12.0;
    const lte::TofEstimate e = est.estimate(lte::apply_srs_channel(tx, ch, rng));
    EXPECT_NEAR(e.distance_m, d, 6.0) << "d=" << d;
  }
}

TEST_P(SeedSweep, MeasurementsLandOnTheTrack) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kFlat;
  wc.seed = seed();
  sim::World world(wc);
  world.ue_positions() = {{120.0, 120.0, 1.5}};
  rem::RemBank rems(world.area(), 5.0, 60.0);
  rems.add_ue(world.ue_positions()[0]);
  const geo::Path track = uav::random_walk(world.area().inflated(-10.0), {100.0, 100.0},
                                           150.0, 25.0, seed());
  geo::Mt19937_64 rng(seed() ^ 0x99);
  sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(track, 60.0), rems, {}, rng);
  EXPECT_GT(rems.measured_cells(0), 10u);
  // Every measured cell center sits within one cell diagonal of the track.
  rems.estimate_all();  // force no-throw
  geo::Grid2D<int> probe(world.area(), 5.0, 0);
  probe.for_each([&](geo::CellIndex c, int&) {
    if (rems.measurement_count(0, c) > 0) {
      EXPECT_LT(track.distance_to(probe.center_of(c)), 5.0 * 1.5) << c.ix << "," << c.iy;
    }
  });
}

TEST_P(SeedSweep, DeploymentsAreWalkableEverywhere) {
  const terrain::Terrain t = terrain::make_nyc(seed(), 2.0);
  for (const auto& ues :
       {mobility::deploy_uniform(t, 10, seed() + 1),
        mobility::deploy_clustered(t, 10, 3, 30.0, seed() + 2),
        mobility::deploy_mixed_visibility(t, 9, seed() + 3)}) {
    for (const geo::Vec3& u : ues) {
      EXPECT_NE(t.clutter_at(u.xy()), terrain::Clutter::kBuilding);
      EXPECT_TRUE(t.area().contains(u.xy()));
    }
  }
}

TEST_P(SeedSweep, GradientMapNonNegativeAndZeroOnFlat) {
  geo::Mt19937_64 rng(seed());
  std::normal_distribution<double> g(0.0, 5.0);
  geo::Grid2D<double> snr(geo::Rect::square(80.0), 8.0, 0.0);
  for (double& v : snr.raw()) v = g(rng);
  const geo::Grid2D<double> grad = rem::gradient_map(snr);
  for (const double v : grad.raw()) EXPECT_GE(v, 0.0);
  snr.fill(7.0);
  const geo::Grid2D<double> flat_grad = rem::gradient_map(snr);
  for (const double v : flat_grad.raw()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_P(SeedSweep, MultilaterationRoundTripRecoversPosition) {
  // Sample a UE position and a constant processing-delay offset, synthesize
  // noisy ToF ranges from random waypoints spread across the area, and
  // require the fixed-offset solver to invert the geometry.
  geo::Mt19937_64 rng(seed());
  const geo::Rect area = geo::Rect::square(300.0);
  std::uniform_real_distribution<double> u(30.0, 270.0);
  std::uniform_real_distribution<double> off(5.0, 60.0);
  std::normal_distribution<double> noise(0.0, 0.3);
  const geo::Vec3 ue{u(rng), u(rng), 1.5};
  const double offset_m = off(rng);

  localization::GpsTofSeries tuples;
  for (int i = 0; i < 40; ++i) {
    const geo::Vec3 wp{u(rng), u(rng), 60.0};
    tuples.push_back({static_cast<double>(i) / 50.0, wp,
                      wp.dist(ue) + offset_m + noise(rng)});
  }

  const localization::MultilaterationResult fit =
      localization::multilaterate_fixed_offset(tuples, area, ue.z, offset_m);
  EXPECT_NEAR(fit.position.dist(ue.xy()), 0.0, 5.0);
  EXPECT_EQ(fit.offset_m, offset_m);
  EXPECT_LT(fit.rms_residual_m, 3.0);
}

TEST_P(SeedSweep, MultilaterationCollinearWaypointsDoNotCrash) {
  // Waypoints on a straight line leave a mirror ambiguity across the line:
  // the solve must stay finite and fit the ranges, and the estimate must
  // land on the UE or its mirror image.
  geo::Mt19937_64 rng(seed());
  const geo::Rect area = geo::Rect::square(300.0);
  std::uniform_real_distribution<double> u(40.0, 260.0);
  const geo::Vec3 ue{u(rng), u(rng), 1.5};
  const double line_y = 150.0;
  const double offset_m = 20.0;

  localization::GpsTofSeries tuples;
  for (int i = 0; i < 30; ++i) {
    const geo::Vec3 wp{30.0 + 8.0 * i, line_y, 60.0};  // strictly collinear
    tuples.push_back({static_cast<double>(i) / 50.0, wp, wp.dist(ue) + offset_m});
  }

  localization::MultilaterationResult fit;
  ASSERT_NO_THROW(fit = localization::multilaterate_fixed_offset(tuples, area, ue.z, offset_m));
  EXPECT_TRUE(std::isfinite(fit.position.x));
  EXPECT_TRUE(std::isfinite(fit.position.y));
  EXPECT_TRUE(std::isfinite(fit.offset_m));
  EXPECT_TRUE(std::isfinite(fit.rms_residual_m));
  const geo::Vec2 mirror{ue.x, 2.0 * line_y - ue.y};
  const double to_truth = std::min(fit.position.dist(ue.xy()), fit.position.dist(mirror));
  EXPECT_LT(to_truth, 10.0);

  // Degenerate extreme: all waypoints identical must also not crash.
  localization::GpsTofSeries same(10, {0.0, {100.0, 100.0, 60.0},
                                       geo::Vec3{100.0, 100.0, 60.0}.dist(ue) + offset_m});
  ASSERT_NO_THROW(localization::multilaterate_fixed_offset(same, area, ue.z, offset_m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 42u, 1337u));

}  // namespace
}  // namespace skyran

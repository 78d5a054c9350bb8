// Tests for the REM module: the map itself (a one-UE RemBank), IDW
// interpolation, gradient maps, k-means, TSP tours, information gain, the
// trajectory planner, the REM store and placement (including the altitude
// search).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "rem/bank.hpp"
#include "rem/gradient.hpp"
#include "rem/idw.hpp"
#include "rem/info_gain.hpp"
#include "rem/kmeans.hpp"
#include "rem/placement.hpp"
#include "rem/planner.hpp"
#include "rem/store.hpp"
#include "rem/tsp.hpp"
#include "terrain/synth.hpp"
#include "uav/trajectory.hpp"

namespace skyran::rem {
namespace {

geo::Rect area100() { return geo::Rect::square(100.0); }

/// One-UE bank over `area` at `cell` m and 50 m altitude.
RemBank one_ue(geo::Rect area, double cell, geo::Vec3 ue) {
  RemBank bank(area, cell, 50.0);
  bank.add_ue(ue);
  return bank;
}

TEST(RemTest, MeasurementsAverageWithinCell) {
  RemBank rem = one_ue(area100(), 10.0, {50.0, 50.0, 1.5});
  rem.add_measurement(0, {15.0, 15.0}, 10.0);
  rem.add_measurement(0, {16.0, 14.0}, 20.0);  // same 10 m cell
  EXPECT_EQ(rem.measured_cells(0), 1u);
  const geo::CellIndex c{1, 1};
  EXPECT_EQ(rem.measurement_count(0, c), 2);
  EXPECT_DOUBLE_EQ(*rem.measured_snr(0, c), 15.0);
  EXPECT_FALSE(rem.measured_snr(0, {0, 0}).has_value());
}

TEST(RemTest, EstimateUsesMeasurementEverywhereByDefault) {
  RemBank rem = one_ue(area100(), 10.0, {50.0, 50.0, 1.5});
  rem.add_measurement(0, {5.0, 5.0}, 12.0);
  rem.estimate_all();
  const geo::FieldView<const double> est = rem.estimate(0);
  // One sample: IDW returns it for every cell.
  EXPECT_DOUBLE_EQ(est.at({0, 0}), 12.0);
  EXPECT_DOUBLE_EQ(est.at({9, 9}), 12.0);
}

TEST(RemTest, EstimateWithoutAnyInformationIsZero) {
  RemBank rem = one_ue(area100(), 10.0, {50.0, 50.0, 1.5});
  rem.estimate_all();
  for (std::size_t i = 0; i < rem.cells_per_ue(); ++i) EXPECT_EQ(rem.estimate(0)[i], 0.0);
}

TEST(RemTest, BackgroundUsedBeyondRadius) {
  RemBank rem = one_ue(area100(), 10.0, {50.0, 50.0, 1.5});
  const rf::FsplChannel fspl(2.6e9);
  rem.seed_from_model(0, fspl, rf::LinkBudget{});
  rem.add_measurement(0, {5.0, 5.0}, -7.0);
  IdwParams params;
  params.max_radius_m = 20.0;
  rem.estimate_all(params);
  const geo::FieldView<const double> est = rem.estimate(0);
  EXPECT_DOUBLE_EQ(est.at({0, 0}), -7.0);  // measured cell
  // Far cell beyond the radius: background (FSPL-derived, much higher).
  EXPECT_GT(est.at({9, 9}), 0.0);
  EXPECT_DOUBLE_EQ(est.at({9, 9}), rem.background(0).at({9, 9}));
}

TEST(RemTest, SeedFromPriorCopiesEstimate) {
  RemBank prior = one_ue(area100(), 10.0, {50.0, 50.0, 1.5});
  prior.add_measurement(0, {55.0, 55.0}, 33.0);
  RemBank fresh = one_ue(area100(), 10.0, {52.0, 50.0, 1.5});
  fresh.seed_from(0, prior);
  EXPECT_EQ(fresh.background_source(0), RemBank::BackgroundSource::kPrior);
  EXPECT_DOUBLE_EQ(fresh.background(0).at({3, 3}), 33.0);
  // The prior itself is left untouched (seeding estimates a copy).
  EXPECT_FALSE(prior.estimates_current());
  // Geometry mismatch rejected, and so is a prior holding several UEs.
  RemBank other = one_ue(geo::Rect::square(50.0), 10.0, {10.0, 10.0, 1.5});
  EXPECT_THROW(fresh.seed_from(0, other), ContractViolation);
  prior.add_ue({20.0, 20.0, 1.5});
  EXPECT_THROW(fresh.seed_from(0, prior), ContractViolation);
}

TEST(RemTest, MeasurementContracts) {
  RemBank rem = one_ue(area100(), 10.0, {50.0, 50.0, 1.5});
  EXPECT_THROW(rem.add_measurement(0, {150.0, 50.0}, 1.0), ContractViolation);
  EXPECT_THROW(rem.add_measurement(1, {50.0, 50.0}, 1.0), ContractViolation);
  EXPECT_THROW(rem.measurement_count(0, {10, 0}), ContractViolation);
  EXPECT_THROW(rem.measured_snr(0, {0, -1}), ContractViolation);
  EXPECT_THROW(rem.extract(1), ContractViolation);
  EXPECT_THROW(RemBank(area100(), 10.0, 0.0), ContractViolation);
  EXPECT_THROW(RemBank(area100(), 0.0, 50.0), ContractViolation);
}

TEST(RemTest, MedianErrorMetric) {
  geo::Grid2D<double> a(area100(), 10.0, 10.0);
  geo::Grid2D<double> b(area100(), 10.0, 13.0);
  EXPECT_DOUBLE_EQ(median_abs_error_db(a, b), 3.0);
  geo::Grid2D<double> c(geo::Rect::square(50.0), 10.0, 0.0);
  EXPECT_THROW(median_abs_error_db(a, c), ContractViolation);
}

TEST(IdwTest, ExactHitReturnsSampleValue) {
  IdwInterpolator idw({{{10.0, 10.0}, 5.0}, {{90.0, 90.0}, 25.0}}, area100());
  EXPECT_DOUBLE_EQ(*idw.estimate({10.0, 10.0}, 4, 2.0, 1e9), 5.0);
}

TEST(IdwTest, InterpolatesBetweenSamples) {
  IdwInterpolator idw({{{0.0, 50.0}, 0.0}, {{100.0, 50.0}, 10.0}}, area100());
  const double mid = *idw.estimate({50.0, 50.0}, 4, 2.0, 1e9);
  EXPECT_NEAR(mid, 5.0, 1e-9);  // equidistant: plain average
  const double near_left = *idw.estimate({10.0, 50.0}, 4, 2.0, 1e9);
  EXPECT_LT(near_left, 2.0);  // inverse-square heavily favors the near one
}

TEST(IdwTest, RadiusLimitsReach) {
  IdwInterpolator idw({{{0.0, 0.0}, 7.0}}, area100());
  EXPECT_TRUE(idw.estimate({5.0, 5.0}, 4, 2.0, 20.0).has_value());
  EXPECT_FALSE(idw.estimate({90.0, 90.0}, 4, 2.0, 20.0).has_value());
}

TEST(IdwTest, EmptySamplesReturnNothing) {
  IdwInterpolator idw({}, area100());
  EXPECT_FALSE(idw.estimate({50.0, 50.0}, 4, 2.0, 1e9).has_value());
}

TEST(IdwTest, KNearestSelectsClosest) {
  // Three samples; k=2 must ignore the far outlier.
  IdwInterpolator idw({{{48.0, 50.0}, 10.0}, {{52.0, 50.0}, 12.0}, {{95.0, 95.0}, 1000.0}},
                      area100());
  const double v = *idw.estimate({50.0, 50.0}, 2, 2.0, 1e9);
  EXPECT_GT(v, 9.9);
  EXPECT_LT(v, 12.1);
}

TEST(GradientTest, FlatMapHasZeroGradient) {
  geo::Grid2D<double> snr(area100(), 10.0, 5.0);
  const geo::Grid2D<double> g = gradient_map(snr);
  for (const double v : g.raw()) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(gradient_median(g), 0.0);
  EXPECT_TRUE(high_gradient_cells(g).empty());
}

TEST(GradientTest, StepEdgeDetected) {
  geo::Grid2D<double> snr(area100(), 10.0, 0.0);
  // Right half 20 dB hotter.
  snr.for_each([&](geo::CellIndex c, double& v) {
    if (c.ix >= 5) v = 20.0;
  });
  const geo::Grid2D<double> g = gradient_map(snr);
  EXPECT_DOUBLE_EQ(g.at(4, 5), 20.0);  // at the edge
  EXPECT_DOUBLE_EQ(g.at(5, 5), 20.0);
  EXPECT_DOUBLE_EQ(g.at(0, 5), 0.0);   // far from it
  const auto hot = high_gradient_cells(g);
  EXPECT_FALSE(hot.empty());
  for (const geo::CellIndex c : hot) EXPECT_TRUE(c.ix == 4 || c.ix == 5);
}

TEST(KMeansTest, SeparatesTwoClusters) {
  std::vector<WeightedPoint> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({{10.0 + i * 0.1, 10.0}, 1.0});
    pts.push_back({{90.0 + i * 0.1, 90.0}, 1.0});
  }
  const KMeansResult r = kmeans(pts, 2, 3);
  ASSERT_EQ(r.centroids.size(), 2u);
  const double d0 = r.centroids[0].dist({11.0, 10.0});
  const double d1 = r.centroids[1].dist({11.0, 10.0});
  const geo::Vec2 near = d0 < d1 ? r.centroids[0] : r.centroids[1];
  const geo::Vec2 far = d0 < d1 ? r.centroids[1] : r.centroids[0];
  EXPECT_LT(near.dist({11.0, 10.0}), 2.0);
  EXPECT_LT(far.dist({91.0, 90.0}), 2.0);
  EXPECT_LT(r.inertia, 100.0);
}

TEST(KMeansTest, WeightsPullCentroids) {
  const std::vector<WeightedPoint> pts{{{0.0, 0.0}, 1.0}, {{10.0, 0.0}, 9.0}};
  const KMeansResult r = kmeans(pts, 1, 3);
  ASSERT_EQ(r.centroids.size(), 1u);
  EXPECT_NEAR(r.centroids[0].x, 9.0, 1e-9);  // weighted mean
}

TEST(KMeansTest, KClampedToPointCount) {
  const std::vector<WeightedPoint> pts{{{1.0, 1.0}, 1.0}, {{2.0, 2.0}, 1.0}};
  const KMeansResult r = kmeans(pts, 10, 3);
  EXPECT_EQ(r.centroids.size(), 2u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, DeterministicInSeed) {
  std::vector<WeightedPoint> pts;
  for (int i = 0; i < 50; ++i)
    pts.push_back({{std::fmod(i * 37.3, 100.0), std::fmod(i * 17.9, 100.0)}, 1.0});
  const KMeansResult a = kmeans(pts, 5, 11);
  const KMeansResult b = kmeans(pts, 5, 11);
  EXPECT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t i = 0; i < a.centroids.size(); ++i)
    EXPECT_EQ(a.centroids[i], b.centroids[i]);
}

TEST(KMeansTest, Contracts) {
  EXPECT_THROW(kmeans({}, 2, 1), ContractViolation);
  EXPECT_THROW(kmeans({{{1.0, 1.0}, 1.0}}, 0, 1), ContractViolation);
}

TEST(TspTest, EmptyAndSingleNode) {
  const geo::Path empty = plan_tour({5.0, 5.0}, {});
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty.points()[0], (geo::Vec2{5.0, 5.0}));
  const geo::Path one = plan_tour({0.0, 0.0}, {{10.0, 0.0}});
  EXPECT_DOUBLE_EQ(one.length(), 10.0);
}

TEST(TspTest, FindsObviousOrdering) {
  // Collinear nodes: optimal open tour visits them in order.
  const geo::Path tour =
      plan_tour({0.0, 0.0}, {{30.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {40.0, 0.0}});
  EXPECT_DOUBLE_EQ(tour.length(), 40.0);
}

TEST(TspTest, TwoOptBeatsGreedyTrap) {
  // A layout where nearest-neighbor alone is suboptimal; 2-opt must improve
  // the tour to within 15% of the straight sweep.
  std::vector<geo::Vec2> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back({i * 10.0, (i % 2) * 50.0});
  const geo::Path tour = plan_tour({0.0, 25.0}, nodes);
  std::vector<geo::Vec2> given{{0.0, 25.0}};
  given.insert(given.end(), nodes.begin(), nodes.end());
  const double best_possible = geo::Path(given).length();  // given order
  EXPECT_LE(tour.length(), best_possible * 1.15 + 50.0);
}

TEST(InfoGainTest, NewUeGetsImax) {
  const geo::Path candidate({{0.0, 0.0}, {50.0, 0.0}});
  InfoGainParams params;
  EXPECT_DOUBLE_EQ(info_gain_for_ue(candidate, {}, params), params.i_max);
}

TEST(InfoGainTest, RepeatedTrajectoryHasNoGain) {
  const geo::Path candidate({{0.0, 0.0}, {50.0, 0.0}});
  EXPECT_NEAR(info_gain_for_ue(candidate, {candidate}), 0.0, 1e-9);
}

TEST(InfoGainTest, MinOverHistory) {
  const geo::Path candidate({{0.0, 0.0}, {50.0, 0.0}});
  const geo::Path near({{0.0, 5.0}, {50.0, 5.0}});
  const geo::Path far({{0.0, 80.0}, {50.0, 80.0}});
  EXPECT_NEAR(info_gain_for_ue(candidate, {far, near}), 5.0, 1e-9);
}

TEST(InfoGainTest, Average) {
  const geo::Path candidate({{0.0, 0.0}, {100.0, 0.0}});
  const std::vector<TrajectoryHistory> history{
      {},                                       // new UE: Imax = 250
      {geo::Path({{0.0, 10.0}, {100.0, 10.0}})}  // existing: gain 10
  };
  EXPECT_NEAR(average_info_gain(candidate, history), 130.0, 1e-9);
}

TEST(PlannerTest, ProducesTourWithinBudget) {
  RemBank rem = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  const rf::FsplChannel fspl(2.6e9);
  rem.seed_from_model(0, fspl, rf::LinkBudget{});
  // Paint an artificial SNR edge so the gradient map has structure.
  for (double x = 5.0; x < 95.0; x += 5.0)
    rem.add_measurement(0, {x, 50.0}, x < 50.0 ? 0.0 : 25.0);

  const PlannerConfig cfg;
  rem.estimate_all();
  const std::vector<TrajectoryHistory> history{{}};
  const PlannedTrajectory plan =
      plan_measurement_trajectory(rem, history, {0.0, 0.0}, 150.0, 7, cfg);
  EXPECT_LE(plan.cost_m, 150.0 + 1e-6);
  EXPECT_GT(plan.cost_m, 0.0);
  EXPECT_GE(plan.k, cfg.k_min);
  EXPECT_LE(plan.k, cfg.k_max);
  EXPECT_GT(plan.info_to_cost, 0.0);
  EXPECT_GT(plan.high_gradient_cells, 0u);
}

TEST(PlannerTest, AvoidsRepeatingHistory) {
  RemBank rem = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  const rf::FsplChannel fspl(2.6e9);
  rem.seed_from_model(0, fspl, rf::LinkBudget{});
  for (double x = 5.0; x < 95.0; x += 5.0)
    for (double y = 5.0; y < 95.0; y += 25.0) rem.add_measurement(0, {x, y}, x + y);

  rem.estimate_all();
  // First plan with no history, then replan with that tour as history: the
  // second tour must differ (higher info gain elsewhere).
  const PlannedTrajectory first = plan_measurement_trajectory(rem, {{}}, {0.0, 0.0}, 0.0, 7);
  const std::vector<TrajectoryHistory> history{{first.path}};
  const PlannedTrajectory second =
      plan_measurement_trajectory(rem, history, {0.0, 0.0}, 0.0, 7);
  EXPECT_GT(second.path.mean_distance_to(first.path, 5.0), 1.0);
}

TEST(PlannerTest, HistorySizeMismatchRejected) {
  RemBank rem = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  rem.estimate_all();
  EXPECT_THROW(plan_measurement_trajectory(rem, {{}, {}}, {0.0, 0.0}, 0.0, 7),
               ContractViolation);
}

TEST(PlannerTest, StaleOrEmptyBankRejected) {
  RemBank rem = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  EXPECT_THROW(plan_measurement_trajectory(rem, {{}}, {0.0, 0.0}, 0.0, 7), ContractViolation);
  RemBank empty(area100(), 5.0, 50.0);
  empty.estimate_all();
  EXPECT_THROW(plan_measurement_trajectory(empty, {}, {0.0, 0.0}, 0.0, 7), ContractViolation);
}

/// One K of the selection-rule oracle: the tour it produced and its scores.
struct OracleK {
  int k = 0;
  double cost = 0.0;
  double ratio = 0.0;
};

/// The planner's serial K loop as it stood before the sweep fanned out:
/// K ascending, skip a zero-length tour, replace only on a strictly greater
/// ratio. `table` receives every K's cost and ratio.
PlannedTrajectory serial_plan_oracle(const RemBank& bank,
                                     const std::vector<TrajectoryHistory>& history,
                                     geo::Vec2 start, double budget_m, std::uint64_t seed,
                                     const PlannerConfig& config, std::vector<OracleK>& table) {
  geo::Grid2D<double> aggregate = bank.estimate_grid(0);
  for (std::size_t i = 1; i < bank.ue_count(); ++i) {
    const geo::FieldView<const double> est = bank.estimate(i);
    for (std::size_t j = 0; j < est.size(); ++j) aggregate.raw()[j] += est[j];
  }
  const geo::Grid2D<double> grad = gradient_map(aggregate);
  const std::vector<geo::CellIndex> hot = high_gradient_cells(grad);
  std::vector<WeightedPoint> points;
  for (geo::CellIndex c : hot) points.push_back({grad.center_of(c), grad.at(c)});
  if (points.empty())
    for (std::size_t i = 0; i < bank.ue_count(); ++i)
      points.push_back({bank.area().clamp(bank.ue_position(i).xy()), 1.0});

  PlannedTrajectory best;
  bool have_best = false;
  table.clear();
  for (int k = config.k_min; k <= config.k_max; ++k) {
    const KMeansResult clusters = kmeans(points, k, seed + static_cast<std::uint64_t>(k));
    geo::Path tour = plan_tour(start, clusters.centroids);
    if (budget_m > 0.0) tour = uav::truncate_to_budget(tour, budget_m);
    const double cost = tour.length();
    table.push_back({k, cost, 0.0});
    if (cost <= 0.0) continue;
    const double gain = average_info_gain(tour, history, config.info);
    const double ratio = gain / cost;
    table.back().ratio = ratio;
    if (!have_best || ratio > best.info_to_cost) {
      best.path = std::move(tour);
      best.k = k;
      best.info_gain = gain;
      best.cost_m = cost;
      best.info_to_cost = ratio;
      have_best = true;
    }
  }
  best.high_gradient_cells = hot.size();
  return best;
}

void expect_same_plan(const PlannedTrajectory& got, const PlannedTrajectory& want) {
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.path.points(), want.path.points());
  EXPECT_EQ(got.info_gain, want.info_gain);
  EXPECT_EQ(got.cost_m, want.cost_m);
  EXPECT_EQ(got.info_to_cost, want.info_to_cost);
  EXPECT_EQ(got.high_gradient_cells, want.high_gradient_cells);
}

/// Three UEs at (20, 40), (80, 40) and (50, 70) over an unmeasured (flat)
/// bank: the planner falls back to the three UE positions as its points.
RemBank flat_three_ue_bank() {
  RemBank bank(area100(), 5.0, 50.0);
  for (const geo::Vec2 p : {geo::Vec2{20.0, 40.0}, geo::Vec2{80.0, 40.0}, geo::Vec2{50.0, 70.0}})
    bank.add_ue({p, 1.5});
  bank.estimate_all();
  return bank;
}

TEST(PlannerSelectionTest, EarliestKWinsAnEqualRatioTie) {
  // K >= 3 clamps to the three points, so every such K flies the same tour
  // and scores the same ratio: the smallest tied K must win.
  const RemBank bank = flat_three_ue_bank();
  PlannerConfig cfg;
  cfg.k_min = 3;
  cfg.k_max = 7;
  const std::vector<TrajectoryHistory> history(3);
  std::vector<OracleK> table;
  const PlannedTrajectory want =
      serial_plan_oracle(bank, history, {5.0, 5.0}, 0.0, 7, cfg, table);
  ASSERT_EQ(want.high_gradient_cells, 0u);  // the fallback points were used
  for (const OracleK& row : table) {
    EXPECT_GT(row.cost, 0.0);
    EXPECT_EQ(row.ratio, table.front().ratio) << "K " << row.k << " is not tied";
  }
  const PlannedTrajectory got =
      plan_measurement_trajectory(bank, history, {5.0, 5.0}, 0.0, 7, cfg);
  EXPECT_EQ(got.k, 3);
  expect_same_plan(got, want);
}

TEST(PlannerSelectionTest, ZeroCostKIsSkipped) {
  // K = 1 puts the single centroid at the points' mean (50, 50), which is
  // the start: a zero-length tour that must never be picked, even though
  // its ratio would be unbounded.
  const RemBank bank = flat_three_ue_bank();
  PlannerConfig cfg;
  cfg.k_min = 1;
  cfg.k_max = 4;
  const std::vector<TrajectoryHistory> history(3);
  std::vector<OracleK> table;
  const PlannedTrajectory want =
      serial_plan_oracle(bank, history, {50.0, 50.0}, 0.0, 7, cfg, table);
  ASSERT_EQ(table.front().k, 1);
  ASSERT_EQ(table.front().cost, 0.0);
  const PlannedTrajectory got =
      plan_measurement_trajectory(bank, history, {50.0, 50.0}, 0.0, 7, cfg);
  EXPECT_NE(got.k, 1);
  EXPECT_GT(got.cost_m, 0.0);
  expect_same_plan(got, want);
}

TEST(PlannerSelectionTest, MatchesSerialOracleOnSeededBanks) {
  for (const std::uint64_t seed : {3u, 11u, 29u, 57u}) {
    geo::Mt19937_64 rng(seed);
    std::uniform_real_distribution<double> pos(5.0, 195.0);
    std::uniform_real_distribution<double> snr(-5.0, 30.0);
    RemBank bank(geo::Rect::square(200.0), 5.0, 50.0);
    for (int u = 0; u < 3; ++u) bank.add_ue({{pos(rng), pos(rng)}, 1.5});
    for (std::size_t u = 0; u < bank.ue_count(); ++u)
      for (int m = 0; m < 40; ++m) bank.add_measurement(u, {pos(rng), pos(rng)}, snr(rng));
    std::vector<TrajectoryHistory> history(bank.ue_count());
    history[1].push_back(
        uav::random_walk(geo::Rect::square(200.0), {100.0, 100.0}, 150.0, 30.0, seed));
    for (const double budget : {0.0, 140.0}) {
      const PlannerConfig cfg;
      bank.estimate_all();
      std::vector<OracleK> table;
      const geo::Vec2 start{pos(rng), pos(rng)};
      const PlannedTrajectory want =
          serial_plan_oracle(bank, history, start, budget, seed, cfg, table);
      const PlannedTrajectory got =
          plan_measurement_trajectory(bank, history, start, budget, seed, cfg);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " budget " << budget);
      expect_same_plan(got, want);
    }
  }
}

TEST(StoreTest, PutAndFindWithinRadius) {
  RemStore store(10.0);
  RemBank rem = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  rem.add_measurement(0, {50.0, 50.0}, 9.0);
  store.put(rem, 0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find_near({55.0, 50.0}), nullptr);
  EXPECT_EQ(store.find_near({70.0, 50.0}), nullptr);
}

TEST(StoreTest, NearbyPutReplacesEntry) {
  RemStore store(10.0);
  RemBank a = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  a.add_measurement(0, {10.0, 10.0}, 1.0);
  store.put(a, 0);
  RemBank b = one_ue(area100(), 5.0, {53.0, 50.0, 1.5});
  b.add_measurement(0, {10.0, 10.0}, 2.0);
  store.put(b, 0);  // within 10 m of a: replaces it
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(*store.entries()[0].measured_snr(0, {2, 2}), 2.0);
  EXPECT_EQ(store.entries()[0].ue_position(0).x, 53.0);
}

TEST(StoreTest, PutStoresOneUeCopyOfTheBankUe) {
  const rf::FsplChannel fspl(2.6e9);
  RemBank bank(area100(), 5.0, 50.0);
  bank.add_ue({20.0, 20.0, 1.5});
  bank.seed_from_model(bank.add_ue({70.0, 70.0, 1.5}), fspl, rf::LinkBudget{});
  bank.add_measurement(1, {72.0, 71.0}, 4.0);
  bank.add_measurement(1, {72.0, 71.0}, 6.0);
  bank.estimate_all();
  RemStore store(10.0);
  store.put(bank, 1);
  ASSERT_EQ(store.size(), 1u);
  const RemBank& e = store.entries()[0];
  EXPECT_EQ(e.ue_count(), 1u);
  EXPECT_EQ(e.ue_position(0).x, 70.0);
  EXPECT_EQ(e.altitude_m(), 50.0);
  EXPECT_EQ(e.measured_cells(0), 1u);
  EXPECT_EQ(e.measurement_count(0, {14, 14}), 2);
  EXPECT_EQ(*e.measured_snr(0, {14, 14}), 5.0);
  EXPECT_EQ(e.background_source(0), RemBank::BackgroundSource::kModel);
  for (std::size_t i = 0; i < e.cells_per_ue(); ++i)
    EXPECT_EQ(e.background(0)[i], bank.background(1)[i]);
  // Entries are stored unestimated: no cached slab rides along.
  EXPECT_FALSE(e.estimates_current());
}

TEST(StoreTest, SeedBankUeSeedsFromPriorOrModel) {
  RemStore store(10.0);
  const rf::FsplChannel fspl(2.6e9);
  const rf::LinkBudget budget;
  RemBank prior = one_ue(area100(), 5.0, {30.0, 30.0, 1.5});
  prior.add_measurement(0, {30.0, 30.0}, -123.0);  // recognizable value
  store.put(prior, 0);
  RemBank bank(area100(), 5.0, 50.0);
  // Near the prior: background carries the -123 measurement.
  const std::size_t near = bank.add_ue({32.0, 30.0, 1.5});
  store.seed_bank_ue(bank, near, fspl, budget);
  EXPECT_NEAR(bank.background(near).at({6, 6}), -123.0, 1e-9);
  EXPECT_EQ(bank.background_source(near), RemBank::BackgroundSource::kPrior);
  // Far away: FSPL seed, nothing like -123.
  const std::size_t far = bank.add_ue({90.0, 90.0, 1.5});
  store.seed_bank_ue(bank, far, fspl, budget);
  EXPECT_GT(bank.background(far).at({6, 6}), -60.0);
  EXPECT_EQ(bank.background_source(far), RemBank::BackgroundSource::kModel);
}

TEST(PlacementTest, MinAndMeanMaps) {
  geo::Grid2D<double> a(area100(), 10.0, 10.0);
  geo::Grid2D<double> b(area100(), 10.0, 4.0);
  const std::vector<geo::Grid2D<double>> grids{a, b};
  const std::vector<geo::FieldView<const double>> maps = geo::views_of(grids);
  const geo::Grid2D<double> mn = min_snr_map(maps);
  EXPECT_DOUBLE_EQ(mn.at(3, 3), 4.0);
  const geo::Grid2D<double> mean = mean_snr_map(maps);
  EXPECT_DOUBLE_EQ(mean.at(3, 3), 7.0);
  const std::vector<double> w{3.0, 1.0};
  const geo::Grid2D<double> weighted = mean_snr_map(maps, w);
  EXPECT_DOUBLE_EQ(weighted.at(3, 3), 8.5);
}

TEST(PlacementTest, MaxMinPicksBalancedCell) {
  geo::Grid2D<double> a(area100(), 10.0, 0.0);
  geo::Grid2D<double> b(area100(), 10.0, 0.0);
  // UE a strong on the left, UE b strong on the right, both OK in the middle.
  a.for_each([&](geo::CellIndex c, double& v) { v = 20.0 - c.ix * 2.0; });
  b.for_each([&](geo::CellIndex c, double& v) { v = c.ix * 2.0; });
  const Placement p = choose_placement(geo::views_of(std::vector<geo::Grid2D<double>>{a, b}));
  EXPECT_NEAR(p.position.x, 50.0, 10.0);
  EXPECT_NEAR(p.objective_snr_db, 10.0, 1.0);
}

TEST(PlacementTest, FeasibilityMaskExcludesBuildings) {
  const auto t = terrain::make_nyc(5, 2.0);
  geo::Grid2D<double> snr(t.area(), 5.0, 10.0);
  geo::Grid2D<double> masked = snr;
  mask_infeasible_cells(masked, t, 60.0);
  std::size_t excluded = 0;
  masked.for_each([&](geo::CellIndex, const double& v) {
    if (v < -1e8) ++excluded;
  });
  // NYC has plenty of > 50 m buildings: a fair share of cells must drop out.
  EXPECT_GT(excluded, masked.size() / 10);
  EXPECT_LT(excluded, masked.size());
  const geo::FieldView<const double> view(snr);
  const Placement p = choose_placement_feasible({&view, 1}, t, 60.0);
  EXPECT_LT(t.surface_height(p.position) + 10.0, 60.0 + 1e-9);
}

TEST(PlacementTest, WeightContractViolations) {
  geo::Grid2D<double> a(area100(), 10.0, 1.0);
  const geo::FieldView<const double> view(a);
  const std::span<const geo::FieldView<const double>> maps{&view, 1};
  const std::vector<double> bad{-1.0};
  EXPECT_THROW(mean_snr_map(maps, bad), ContractViolation);
  const std::vector<double> wrong_count{1.0, 2.0};
  EXPECT_THROW(mean_snr_map(maps, wrong_count), ContractViolation);
  EXPECT_THROW(min_snr_map({}), ContractViolation);
}

TEST(AltitudeSearchTest, FindsLossMinimum) {
  // Synthetic channel with a V-shaped loss curve: minimum at 60 m.
  class VChannel final : public rf::ChannelModel {
   public:
    double path_loss_db(geo::Vec3 a, geo::Vec3) const override {
      return 80.0 + std::abs(a.z - 60.0);
    }
    double frequency_hz() const override { return 2.6e9; }
  };
  const VChannel ch;
  const std::vector<geo::Vec3> ues{{50.0, 50.0, 1.5}};
  const AltitudeSearchResult r = find_optimal_altitude(ch, {50.0, 50.0}, ues, 120.0, 20.0, 10.0);
  EXPECT_DOUBLE_EQ(r.altitude_m, 60.0);
  EXPECT_NEAR(r.mean_path_loss_db, 80.0, 1e-9);
}

TEST(AltitudeSearchTest, MonotoneLossStaysHigh) {
  // Loss grows as you descend: the search must stay at the start altitude.
  class InvChannel final : public rf::ChannelModel {
   public:
    double path_loss_db(geo::Vec3 a, geo::Vec3) const override { return 200.0 - a.z; }
    double frequency_hz() const override { return 2.6e9; }
  };
  const InvChannel ch;
  const std::vector<geo::Vec3> ues{{0.0, 0.0, 1.5}};
  const AltitudeSearchResult r = find_optimal_altitude(ch, {0.0, 0.0}, ues, 120.0, 20.0, 10.0);
  EXPECT_DOUBLE_EQ(r.altitude_m, 120.0);
  EXPECT_LE(r.probes, 4);  // gave up after `patience` worse steps
}

TEST(AltitudeSearchTest, Contracts) {
  const rf::FsplChannel ch(2.6e9);
  const std::vector<geo::Vec3> ues{{0.0, 0.0, 1.5}};
  EXPECT_THROW(find_optimal_altitude(ch, {0, 0}, {}, 120.0, 20.0, 10.0), ContractViolation);
  EXPECT_THROW(find_optimal_altitude(ch, {0, 0}, ues, 20.0, 120.0, 10.0), ContractViolation);
  EXPECT_THROW(find_optimal_altitude(ch, {0, 0}, ues, 120.0, 20.0, 0.0), ContractViolation);
}

/// K-sweep property: planner cost grows (weakly) with available K range.
class PlannerKSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlannerKSweep, TourVisitsRoughlyKClusters) {
  RemBank rem = one_ue(area100(), 5.0, {50.0, 50.0, 1.5});
  const rf::FsplChannel fspl(2.6e9);
  rem.seed_from_model(0, fspl, rf::LinkBudget{});
  for (double x = 5.0; x < 95.0; x += 7.0)
    for (double y = 5.0; y < 95.0; y += 23.0)
      rem.add_measurement(0, {x, y}, std::fmod(x * y, 29.0));
  PlannerConfig cfg;
  cfg.k_min = GetParam();
  cfg.k_max = GetParam();  // pin K
  rem.estimate_all();
  const PlannedTrajectory plan =
      plan_measurement_trajectory(rem, {{}}, {0.0, 0.0}, 0.0, 7, cfg);
  EXPECT_EQ(plan.k, GetParam());
  // Tour has start + K nodes.
  EXPECT_EQ(plan.path.size(), static_cast<std::size_t>(GetParam()) + 1);
}

INSTANTIATE_TEST_SUITE_P(Ks, PlannerKSweep, ::testing::Values(2, 4, 8, 12));

}  // namespace
}  // namespace skyran::rem

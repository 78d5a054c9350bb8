// Differential oracle for the RemBank REM engine: after every measurement
// round, the live bank's estimate_all() (stale UEs re-rastered, clean UEs
// served from the cache) must be bit-for-bit identical to a cold rebuild
// (the first, full estimate_all of a never-estimated twin fed the same
// deposits), serially and on the thread pool. Also covers geo::FieldView,
// the geo::PointIndex spatial index and the REM store's put/find against
// brute-force models of the historical linear scans, the placement view
// overloads, and the IDW ring search and the bank's raster against a copy of
// the full-square search they replaced. Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/field_view.hpp"
#include "geo/mt19937.hpp"
#include "geo/point_index.hpp"
#include "kernels/kernels.hpp"
#include "rem/bank.hpp"
#include "rem/idw.hpp"
#include "rem/placement.hpp"
#include "rem/store.hpp"
#include "rf/channel.hpp"

namespace skyran {
namespace {

constexpr int kParallelWorkers = 8;

template <typename F>
auto serial_and_parallel(F&& fn) {
  core::set_global_workers(1);
  auto serial = fn();
  core::set_global_workers(kParallelWorkers);
  auto parallel = fn();
  core::set_global_workers(0);
  return std::pair{std::move(serial), std::move(parallel)};
}

geo::Rect area100() { return geo::Rect::square(100.0); }

/// Count cells whose values differ bit-for-bit (== on doubles; both sides
/// are produced without NaNs).
template <typename A, typename B>
std::size_t mismatches(const A& a, const B& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    if (a[i] != b[i]) ++bad;
  return bad;
}

// ---------------------------------------------------------------------------
// FieldView

TEST(FieldViewTest, MirrorsGridGeometryAndValues) {
  geo::Grid2D<double> g(area100(), 4.0, 0.0);
  g.for_each([&](geo::CellIndex c, double& v) { v = c.ix * 100.0 + c.iy; });
  const geo::FieldView<const double> view = geo::view_of(std::as_const(g));
  EXPECT_EQ(view.nx(), g.nx());
  EXPECT_EQ(view.ny(), g.ny());
  EXPECT_EQ(view.size(), g.size());
  EXPECT_TRUE(view.same_geometry(g));
  for (int iy = 0; iy < g.ny(); ++iy)
    for (int ix = 0; ix < g.nx(); ++ix) {
      EXPECT_EQ(view.at({ix, iy}), g.at({ix, iy}));
      const geo::Vec2 cv = view.center_of({ix, iy});
      const geo::Vec2 cg = g.center_of({ix, iy});
      EXPECT_EQ(cv.x, cg.x);
      EXPECT_EQ(cv.y, cg.y);
    }
  // cell_of agrees everywhere, including boundary clamping.
  geo::Mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  for (int i = 0; i < 500; ++i) {
    const geo::Vec2 p{u(rng), u(rng)};
    EXPECT_EQ(view.cell_of(p), g.cell_of(p));
  }
  EXPECT_EQ(view.cell_of({100.0, 100.0}), g.cell_of({100.0, 100.0}));
}

TEST(FieldViewTest, MutableViewWritesThrough) {
  geo::Grid2D<double> g(area100(), 10.0, 1.0);
  geo::FieldView<double> view = geo::view_of(g);
  view.at({3, 2}) = 42.0;
  EXPECT_EQ(g.at({3, 2}), 42.0);
}

TEST(FieldViewTest, ToGridRoundTrips) {
  geo::Grid2D<double> g(area100(), 7.0, 0.0);
  g.for_each([&](geo::CellIndex c, double& v) { v = std::sin(c.ix + 3.0 * c.iy); });
  const geo::Grid2D<double> copy = geo::view_of(std::as_const(g)).to_grid();
  EXPECT_TRUE(copy.same_geometry(g));
  EXPECT_EQ(mismatches(copy.raw(), g.raw()), 0u);
}

TEST(FieldViewTest, OutOfBoundsRejected) {
  geo::Grid2D<double> g(area100(), 10.0, 0.0);
  const geo::FieldView<const double> view = geo::view_of(std::as_const(g));
  EXPECT_THROW(view.at({-1, 0}), ContractViolation);
  EXPECT_THROW(view.at({view.nx(), 0}), ContractViolation);
  EXPECT_THROW(view.cell_of({-5.0, 50.0}), ContractViolation);
}

// ---------------------------------------------------------------------------
// PointIndex vs brute force

TEST(PointIndexTest, MatchesBruteForceFirstAndNearest) {
  geo::Mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-50.0, 150.0);
  for (const double radius : {3.0, 10.0, 40.0}) {
    geo::PointIndex index(radius);
    std::vector<geo::Vec2> pts;
    for (int n = 0; n < 300; ++n) {
      const geo::Vec2 p{u(rng), u(rng)};
      index.insert(p, pts.size());
      pts.push_back(p);

      const geo::Vec2 q{u(rng), u(rng)};
      // Brute-force models of the legacy linear scans.
      std::optional<std::size_t> first;
      std::optional<std::size_t> nearest;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const double d = pts[i].dist(q);
        if (d > radius) continue;
        if (!first) first = i;
        if (d < best_d) {  // strict <: ties keep the earliest id
          best_d = d;
          nearest = i;
        }
      }
      EXPECT_EQ(index.first_within(q, radius), first);
      EXPECT_EQ(index.nearest_within(q, radius), nearest);
    }
  }
}

TEST(PointIndexTest, MoveRelocatesPoint) {
  geo::PointIndex index(10.0);
  index.insert({10.0, 10.0}, 0);
  index.insert({50.0, 50.0}, 1);
  ASSERT_TRUE(index.first_within({12.0, 10.0}, 5.0).has_value());
  index.move(0, {10.0, 10.0}, {90.0, 90.0});
  EXPECT_FALSE(index.first_within({12.0, 10.0}, 5.0).has_value());
  const auto hit = index.nearest_within({89.0, 90.0}, 5.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0u);
}

TEST(PointIndexTest, TiesPreferLowestId) {
  geo::PointIndex index(10.0);
  index.insert({20.0, 20.0}, 3);
  index.insert({20.0, 20.0}, 1);  // identical position, lower id inserted later
  const auto hit = index.nearest_within({21.0, 20.0}, 5.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1u);
  const auto first = index.first_within({21.0, 20.0}, 5.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1u);
}

// ---------------------------------------------------------------------------
// RemBank live (per-UE cached) vs cold rebuild

struct DepositScript {
  struct Deposit {
    std::size_t ue;
    geo::Vec2 at;
    double snr_db;
  };
  std::vector<std::vector<Deposit>> rounds;
};

DepositScript make_script(std::size_t n_ue, int n_rounds, int per_round, geo::Rect area,
                          std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> x(area.min.x, area.max.x);
  std::uniform_real_distribution<double> y(area.min.y, area.max.y);
  std::uniform_real_distribution<double> snr(-25.0, 35.0);
  std::uniform_int_distribution<std::size_t> ue(0, n_ue - 1);
  DepositScript script;
  for (int r = 0; r < n_rounds; ++r) {
    std::vector<DepositScript::Deposit> round;
    // A tour-like cluster: deposits of one round stay near a random anchor,
    // like samples along a flown path.
    const geo::Vec2 anchor{x(rng), y(rng)};
    std::normal_distribution<double> off(0.0, 18.0);
    for (int i = 0; i < per_round; ++i)
      round.push_back({ue(rng), area.clamp(anchor + geo::Vec2{off(rng), off(rng)}),
                       snr(rng)});
    script.rounds.push_back(std::move(round));
  }
  return script;
}

/// The first estimate_all of a copy of `twin`, which must never have been
/// estimated: a full re-raster of every cell.
rem::RemBank cold_rebuild(const rem::RemBank& twin, const rem::IdwParams& params) {
  EXPECT_FALSE(twin.estimates_current());
  rem::RemBank cold = twin;
  cold.estimate_all(params);
  EXPECT_EQ(cold.last_estimate_stats().cells_reestimated,
            cold.last_estimate_stats().cells_total);
  return cold;
}

/// Cells of `ue` whose cached estimates differ bit-for-bit between banks.
std::size_t estimate_mismatches(const rem::RemBank& a, const rem::RemBank& b, std::size_t ue) {
  return mismatches(a.estimate(ue), b.estimate(ue));
}

enum class Background { kNone, kModel, kPrior };

/// Drive a live RemBank and a never-estimated twin through the same deposit
/// script; after every round the live bank's estimate must equal
/// the twin's cold rebuild. Returns the final estimates for serial/parallel
/// comparison.
std::vector<double> run_oracle(Background bg, const rem::IdwParams& params, std::uint64_t seed) {
  const geo::Rect area = area100();
  const double cell = 4.0;
  const double altitude = 60.0;
  const std::size_t n_ue = 3;
  const std::vector<geo::Vec3> ue_pos{{20.0, 30.0, 1.5}, {70.0, 25.0, 1.5}, {55.0, 80.0, 1.5}};

  const rf::FsplChannel fspl(2.6e9);
  rem::RemBank prior(area, cell, altitude);
  prior.add_ue({45.0, 45.0, 1.5});
  prior.add_measurement(0, {40.0, 40.0}, 12.0);
  prior.add_measurement(0, {60.0, 50.0}, -3.0);

  rem::RemBank bank(area, cell, altitude);
  for (std::size_t i = 0; i < n_ue; ++i) {
    bank.add_ue(ue_pos[i]);
    if (bg == Background::kModel) bank.seed_from_model(i, fspl, rf::LinkBudget{});
    if (bg == Background::kPrior) bank.seed_from(i, prior, params);
  }
  rem::RemBank twin = bank;

  const DepositScript script = make_script(n_ue, 4, 40, area, seed);
  std::vector<double> final_estimates;
  for (const auto& round : script.rounds) {
    for (const auto& d : round) {
      bank.add_measurement(d.ue, d.at, d.snr_db);
      twin.add_measurement(d.ue, d.at, d.snr_db);
    }
    bank.estimate_all(params);
    EXPECT_TRUE(bank.estimates_current());
    const rem::RemBank cold = cold_rebuild(twin, params);
    final_estimates.clear();
    for (std::size_t i = 0; i < n_ue; ++i) {
      EXPECT_EQ(estimate_mismatches(cold, bank, i), 0u)
          << "UE " << i << " diverged from the cold rebuild";
      const geo::FieldView<const double> got = bank.estimate(i);
      for (std::size_t j = 0; j < got.size(); ++j) final_estimates.push_back(got[j]);
    }
  }
  return final_estimates;
}

TEST(RemBankOracleTest, NoBackground) {
  const auto [serial, parallel] =
      serial_and_parallel([] { return run_oracle(Background::kNone, {}, 101); });
  EXPECT_EQ(mismatches(serial, parallel), 0u);
}

TEST(RemBankOracleTest, ModelBackground) {
  const auto [serial, parallel] =
      serial_and_parallel([] { return run_oracle(Background::kModel, {}, 202); });
  EXPECT_EQ(mismatches(serial, parallel), 0u);
}

TEST(RemBankOracleTest, PriorBlend) {
  rem::IdwParams params;
  params.background_blend_m = 30.0;
  const auto [serial, parallel] =
      serial_and_parallel([&] { return run_oracle(Background::kPrior, params, 303); });
  EXPECT_EQ(mismatches(serial, parallel), 0u);
}

TEST(RemBankOracleTest, FiniteRadiusSmallK) {
  rem::IdwParams params;
  params.k_neighbors = 2;
  params.max_radius_m = 60.0;
  const auto [serial, parallel] =
      serial_and_parallel([&] { return run_oracle(Background::kModel, params, 404); });
  EXPECT_EQ(mismatches(serial, parallel), 0u);
}

TEST(RemBankTest, ParamsChangeRecomputesEveryCell) {
  const geo::Rect area = area100();
  rem::RemBank bank(area, 4.0, 60.0);
  bank.add_ue({50.0, 50.0, 1.5});
  geo::Mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  for (int i = 0; i < 30; ++i) {
    const geo::Vec2 p{u(rng), u(rng)};
    bank.add_measurement(0, p, u(rng) - 50.0);
  }
  const rem::RemBank twin = bank;
  rem::IdwParams a;  // defaults
  rem::IdwParams b;
  b.k_neighbors = 3;
  b.power = 1.5;
  bank.estimate_all(a);
  EXPECT_EQ(estimate_mismatches(cold_rebuild(twin, a), bank, 0), 0u);
  bank.estimate_all(b);  // parameter change: full recompute, new reference
  EXPECT_EQ(bank.last_estimate_stats().cells_reestimated,
            bank.last_estimate_stats().cells_total);
  EXPECT_EQ(estimate_mismatches(cold_rebuild(twin, b), bank, 0), 0u);
}

TEST(RemBankTest, DepositIntoOneUeReestimatesOnlyThatUe) {
  // Three estimated UEs; one deposit into UE 1 re-rasters exactly that UE's
  // cells, and the other two are served from the cache.
  const geo::Rect area = area100();
  const rf::FsplChannel fspl(2.6e9);
  rem::RemBank bank(area, 4.0, 60.0);
  for (const geo::Vec3 ue : {geo::Vec3{20.0, 30.0, 1.5}, geo::Vec3{70.0, 25.0, 1.5},
                             geo::Vec3{55.0, 80.0, 1.5}})
    bank.seed_from_model(bank.add_ue(ue), fspl, rf::LinkBudget{});
  geo::Mt19937_64 rng(9);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  for (std::size_t ue = 0; ue < 3; ++ue)
    for (int i = 0; i < 20; ++i) bank.add_measurement(ue, {u(rng), u(rng)}, u(rng) - 50.0);
  rem::RemBank twin = bank;
  bank.estimate_all();
  EXPECT_EQ(bank.last_estimate_stats().cells_reestimated,
            bank.last_estimate_stats().cells_total);

  bank.add_measurement(1, {30.0, 35.0}, 9.0);
  twin.add_measurement(1, {30.0, 35.0}, 9.0);
  EXPECT_FALSE(bank.estimates_current());
  bank.estimate_all();
  const rem::RemBank::EstimateStats& s = bank.last_estimate_stats();
  EXPECT_EQ(s.cells_total, 3 * bank.cells_per_ue());
  EXPECT_EQ(s.cells_reestimated, bank.cells_per_ue());
  EXPECT_EQ(s.cells_cached, 2 * bank.cells_per_ue());
  const rem::RemBank cold = cold_rebuild(twin, {});
  for (std::size_t ue = 0; ue < 3; ++ue)
    EXPECT_EQ(estimate_mismatches(cold, bank, ue), 0u) << "UE " << ue;

  // Nothing new: every UE is a cache hit.
  bank.estimate_all();
  EXPECT_EQ(bank.last_estimate_stats().cells_reestimated, 0u);
  EXPECT_EQ(estimate_mismatches(cold, bank, 1), 0u);
}

// The one way the per-UE cache can go wrong is a mutator that forgets to
// mark its UE stale: the next estimate_all would then serve an outdated
// slab. Every mutator is driven through the same check.

/// IDW parameters for the mutator cases: a finite radius leaves cells far
/// from the deposits on the background, so background mutators show too.
rem::IdwParams mutator_params() {
  rem::IdwParams params;
  params.k_neighbors = 4;
  params.max_radius_m = 30.0;
  return params;
}

/// Three UEs with model backgrounds and a few deposits each, never estimated.
rem::RemBank mutator_fixture() {
  const rf::FsplChannel fspl(2.6e9);
  rem::RemBank bank(area100(), 4.0, 60.0);
  for (const geo::Vec3 ue : {geo::Vec3{20.0, 30.0, 1.5}, geo::Vec3{70.0, 25.0, 1.5},
                             geo::Vec3{55.0, 80.0, 1.5}})
    bank.seed_from_model(bank.add_ue(ue), fspl, rf::LinkBudget{});
  geo::Mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  for (std::size_t ue = 0; ue < 3; ++ue)
    for (int i = 0; i < 6; ++i) bank.add_measurement(ue, {u(rng), u(rng)}, u(rng) - 50.0);
  return bank;
}

struct Mutator {
  const char* name;
  /// Changes one UE of `bank` (UE 1, or a new UE for add_ue) and returns it.
  std::size_t (*apply)(rem::RemBank& bank);
};

const Mutator kMutators[] = {
    {"add_ue", [](rem::RemBank& bank) { return bank.add_ue({85.0, 15.0, 1.5}); }},
    {"add_measurement",
     [](rem::RemBank& bank) -> std::size_t {
       bank.add_measurement(1, {12.0, 88.0}, 21.0);
       return 1;
     }},
    {"seed_from_model",
     [](rem::RemBank& bank) -> std::size_t {
       bank.seed_from_model(1, rf::FsplChannel(5.8e9), rf::LinkBudget{});
       return 1;
     }},
    {"seed_from",
     [](rem::RemBank& bank) -> std::size_t {
       rem::RemBank prior(area100(), 4.0, 60.0);
       prior.add_ue({70.0, 25.0, 1.5});
       prior.add_measurement(0, {40.0, 40.0}, 12.0);
       prior.add_measurement(0, {90.0, 60.0}, -3.0);
       bank.seed_from(1, prior, mutator_params());
       return 1;
     }},
    {"restore_measurement",
     [](rem::RemBank& bank) -> std::size_t {
       bank.restore_measurement(1, {2, 3}, 40.0, 2);
       return 1;
     }},
    {"restore_background",
     [](rem::RemBank& bank) -> std::size_t {
       const std::vector<double> flat(bank.cells_per_ue(), 7.5);
       bank.restore_background(1, flat, rem::RemBank::BackgroundSource::kModel);
       return 1;
     }},
};

void PrintTo(const Mutator& m, std::ostream* os) { *os << m.name; }

class RemBankMutatorTest : public ::testing::TestWithParam<Mutator> {};

TEST_P(RemBankMutatorTest, MarksOnlyItsOwnUeStale) {
  const rem::IdwParams params = mutator_params();
  rem::RemBank bank = mutator_fixture();
  rem::RemBank twin = bank;
  bank.estimate_all(params);
  const std::size_t ues_before = bank.ue_count();
  const std::vector<double> before_ue1 = bank.estimate_grid(1).raw();

  const std::size_t ue = GetParam().apply(bank);
  GetParam().apply(twin);
  EXPECT_FALSE(bank.estimates_current());
  bank.estimate_all(params);
  EXPECT_TRUE(bank.estimates_current());
  const rem::RemBank::EstimateStats& s = bank.last_estimate_stats();
  EXPECT_EQ(s.cells_reestimated, bank.cells_per_ue());
  EXPECT_EQ(s.cells_cached, s.cells_total - bank.cells_per_ue());
  const rem::RemBank cold = cold_rebuild(twin, params);
  for (std::size_t i = 0; i < bank.ue_count(); ++i)
    EXPECT_EQ(estimate_mismatches(cold, bank, i), 0u) << "UE " << i;
  // The mutation shows in the estimate, so a missing stale flag cannot pass
  // by serving the old slab.
  if (ue < ues_before) {
    EXPECT_GT(mismatches(before_ue1, bank.estimate(ue)), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMutators, RemBankMutatorTest, ::testing::ValuesIn(kMutators),
                         [](const ::testing::TestParamInfo<Mutator>& info) {
                           return std::string(info.param.name);
                         });

TEST(RemBankTest, InvalidParamsRejectedBeforeAnyStateChanges) {
  rem::RemBank bank(area100(), 4.0, 60.0);
  bank.add_ue({50.0, 50.0, 1.5});
  bank.add_measurement(0, {20.0, 20.0}, 5.0);
  bank.add_measurement(0, {80.0, 70.0}, -4.0);
  bank.estimate_all();
  const std::vector<double> cached = bank.estimate_grid(0).raw();

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto with = [](auto edit) {
    rem::IdwParams p;
    edit(p);
    return p;
  };
  const std::vector<std::pair<const char*, rem::IdwParams>> bad{
      {"k = 0", with([](rem::IdwParams& p) { p.k_neighbors = 0; })},
      {"k < 0", with([](rem::IdwParams& p) { p.k_neighbors = -3; })},
      {"power = 0", with([](rem::IdwParams& p) { p.power = 0.0; })},
      {"power < 0", with([](rem::IdwParams& p) { p.power = -2.0; })},
      {"power NaN", with([](rem::IdwParams& p) { p.power = kNan; })},
      {"power inf", with([](rem::IdwParams& p) { p.power = kInf; })},
      {"radius -5", with([](rem::IdwParams& p) { p.max_radius_m = -5.0; })},
      {"radius -100", with([](rem::IdwParams& p) { p.max_radius_m = -100.0; })},
      {"radius NaN", with([](rem::IdwParams& p) { p.max_radius_m = kNan; })},
      {"blend < 0", with([](rem::IdwParams& p) { p.background_blend_m = -1.0; })},
      {"blend NaN", with([](rem::IdwParams& p) { p.background_blend_m = kNan; })},
  };
  for (const auto& [what, params] : bad) {
    EXPECT_THROW(rem::validate(params), ContractViolation) << what;
    EXPECT_THROW(bank.estimate_all(params), ContractViolation) << what;
    EXPECT_TRUE(bank.estimates_current()) << what;
    EXPECT_EQ(mismatches(cached, bank.estimate(0)), 0u) << what;
  }
  // A rejected call on a stale bank leaves it stale.
  bank.add_measurement(0, {50.0, 50.0}, 1.0);
  EXPECT_THROW(bank.estimate_all(bad.front().second), ContractViolation);
  EXPECT_FALSE(bank.estimates_current());

  // Boundary values stay legal.
  for (const rem::IdwParams& ok :
       {with([](rem::IdwParams& p) { p.max_radius_m = 0.0; }),
        with([](rem::IdwParams& p) { p.max_radius_m = kInf; }),
        with([](rem::IdwParams& p) { p.background_blend_m = 0.0; }),
        with([](rem::IdwParams& p) { p.background_blend_m = kInf; })}) {
    EXPECT_NO_THROW(rem::validate(ok));
    EXPECT_NO_THROW(bank.estimate_all(ok));
  }

  // The spatial index rejects a negative radius instead of reading a small
  // one as its absolute value and a large one as "nothing in range".
  const rem::IdwInterpolator idw({{{10.0, 10.0}, 5.0}}, area100());
  EXPECT_THROW(idw.nearest({12.0, 10.0}, 4, -5.0), ContractViolation);
  EXPECT_THROW(idw.nearest({12.0, 10.0}, 4, -100.0), ContractViolation);
  EXPECT_THROW(idw.nearest({12.0, 10.0}, 4, kNan), ContractViolation);
  EXPECT_EQ(idw.nearest({12.0, 10.0}, 4, 0.0).size(), 0u);
  EXPECT_EQ(idw.nearest({12.0, 10.0}, 4, kInf).size(), 1u);
}

TEST(RemBankTest, ExtractCopiesOneUe) {
  const geo::Rect area = area100();
  const rf::FsplChannel fspl(2.6e9);
  rem::RemBank bank(area, 5.0, 50.0);
  bank.add_ue({10.0, 90.0, 1.5});
  bank.add_ue({40.0, 60.0, 1.5});
  bank.seed_from_model(1, fspl, rf::LinkBudget{});
  bank.add_measurement(1, {20.0, 20.0}, 5.0);
  bank.add_measurement(1, {20.0, 20.0}, 7.0);
  bank.add_measurement(1, {80.0, 30.0}, -2.0);
  bank.add_measurement(0, {50.0, 50.0}, 1.0);
  bank.estimate_all();

  const rem::RemBank out = bank.extract(1);
  ASSERT_EQ(out.ue_count(), 1u);
  EXPECT_FALSE(out.estimates_current());
  EXPECT_EQ(out.measured_cells(0), 2u);
  EXPECT_EQ(out.background_source(0), rem::RemBank::BackgroundSource::kModel);
  EXPECT_EQ(out.ue_position(0).x, 40.0);
  EXPECT_EQ(out.altitude_m(), 50.0);
  EXPECT_EQ(mismatches(out.background(0), bank.background(1)), 0u);
  EXPECT_EQ(out.measurement_count(0, {4, 4}), 2);
  EXPECT_EQ(*out.measured_snr(0, {4, 4}), *bank.measured_snr(1, {4, 4}));
  // The copy estimates to the same map as the UE it came from.
  EXPECT_EQ(mismatches(cold_rebuild(out, {}).estimate(0), bank.estimate(1)), 0u);
}

TEST(RemBankTest, StaleEstimateAccessRejected) {
  rem::RemBank bank(area100(), 10.0, 50.0);
  bank.add_ue({50.0, 50.0, 1.5});
  EXPECT_FALSE(bank.estimates_current());
  EXPECT_THROW(bank.estimate(0), ContractViolation);
  bank.estimate_all();
  EXPECT_NO_THROW(bank.estimate(0));
  bank.add_measurement(0, {10.0, 10.0}, 1.0);
  EXPECT_FALSE(bank.estimates_current());
  EXPECT_THROW(bank.estimate(0), ContractViolation);
}

// ---------------------------------------------------------------------------
// Consumers: store / placement

TEST(RemStoreIndexTest, PutAndFindMatchLegacyScanSemantics) {
  // Reference model replicating the historical linear scans: put replaces
  // the FIRST entry in insertion order within R; find_near returns the
  // nearest with strict-< improvement (earliest entry wins ties).
  const double R = 10.0;
  std::vector<geo::Vec2> model;
  const auto model_put = [&](geo::Vec2 p) {
    for (auto& q : model)
      if (q.dist(p) <= R) {
        q = p;
        return;
      }
    model.push_back(p);
  };
  const auto model_find = [&](geo::Vec2 q) -> std::optional<std::size_t> {
    std::optional<std::size_t> best;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < model.size(); ++i) {
      const double d = model[i].dist(q);
      if (d <= R && d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return best;
  };

  rem::RemStore store(R);
  geo::Mt19937_64 rng(23);
  std::uniform_real_distribution<double> u(5.0, 95.0);
  for (int i = 0; i < 200; ++i) {
    const geo::Vec2 p{u(rng), u(rng)};
    rem::RemBank r(area100(), 10.0, 50.0);
    r.add_ue({p, 1.5});
    r.add_measurement(0, p, static_cast<double>(i));  // tag the entry
    store.put(r, 0);
    model_put(p);

    ASSERT_EQ(store.size(), model.size());
    const geo::Vec2 q{u(rng), u(rng)};
    const rem::RemBank* hit = store.find_near(q);
    const std::optional<std::size_t> want = model_find(q);
    ASSERT_EQ(hit != nullptr, want.has_value());
    if (hit != nullptr) {
      EXPECT_EQ(hit->ue_position(0).xy().x, model[*want].x);
      EXPECT_EQ(hit->ue_position(0).xy().y, model[*want].y);
    }
  }
}

TEST(RemBankPlacementTest, ViewPathSerialEqualsParallel) {
  geo::Mt19937_64 rng(31);
  std::uniform_real_distribution<double> u(-30.0, 30.0);
  std::vector<geo::Grid2D<double>> maps;
  for (int m = 0; m < 3; ++m) {
    geo::Grid2D<double> g(area100(), 4.0, 0.0);
    for (double& v : g.raw()) v = u(rng);
    maps.push_back(std::move(g));
  }
  const std::vector<geo::FieldView<const double>> views = geo::views_of(maps);

  const auto [serial, parallel] = serial_and_parallel([&] {
    std::vector<double> out;
    for (const geo::Grid2D<double>& g :
         {rem::min_snr_map(views), rem::mean_snr_map(views), rem::coverage_map(views)})
      out.insert(out.end(), g.raw().begin(), g.raw().end());
    const rem::Placement p = rem::choose_placement(views);
    out.push_back(p.position.x);
    out.push_back(p.position.y);
    out.push_back(p.objective_snr_db);
    return out;
  });
  EXPECT_EQ(mismatches(serial, parallel), 0u);
}

// ---------------------------------------------------------------------------
// Exact IDW raster: the shell-only ring search with reused scratch against
// the full-square search with per-call vectors it replaced.

/// IdwInterpolator's ring search and estimate as they read before the search
/// visited only each ring's shell: every ring sweeps the full (2r+1)² square
/// of buckets and skips the interior, and every call allocates. Same bucket
/// grid, same candidate order, same nth_element / partial_sort calls.
class FullSquareIdw {
 public:
  FullSquareIdw(std::vector<rem::IdwSample> samples, geo::Rect area, double bucket_m = 16.0)
      : samples_(std::move(samples)), buckets_(area, bucket_m) {
    for (std::size_t i = 0; i < samples_.size(); ++i)
      buckets_.value_at(area.clamp(samples_[i].position)).push_back(static_cast<int>(i));
  }

  std::vector<rem::IdwInterpolator::Neighbor> nearest(geo::Vec2 p, int k,
                                                      double max_radius_m) const {
    std::vector<rem::IdwInterpolator::Neighbor> out;
    if (samples_.empty()) return out;
    const geo::Vec2 q = buckets_.area().clamp(p);
    const geo::CellIndex center = buckets_.cell_of(q);
    const int grid_span = std::max(buckets_.nx(), buckets_.ny()) + 1;
    const int max_ring = static_cast<int>(std::min<double>(
        grid_span, std::ceil(max_radius_m / buckets_.cell_size()) + 1.0));
    struct Found {
      double dist2;
      int index;
    };
    std::vector<Found> found;
    for (int ring = 0; ring <= max_ring; ++ring) {
      for (int dy = -ring; dy <= ring; ++dy) {
        for (int dx = -ring; dx <= ring; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
          const geo::CellIndex c{center.ix + dx, center.iy + dy};
          if (!buckets_.in_bounds(c)) continue;
          for (int idx : buckets_.at(c)) {
            const rem::IdwSample& s = samples_[static_cast<std::size_t>(idx)];
            const double d2 = (s.position - p).norm2();
            if (d2 <= max_radius_m * max_radius_m) found.push_back({d2, idx});
          }
        }
      }
      if (static_cast<int>(found.size()) >= k) {
        std::nth_element(found.begin(), found.begin() + (k - 1), found.end(),
                         [](const Found& a, const Found& b) { return a.dist2 < b.dist2; });
        const double kth = std::sqrt(found[static_cast<std::size_t>(k - 1)].dist2);
        const double safe = ring * buckets_.cell_size();
        if (kth <= safe) break;
      }
    }
    const int use = std::min<int>(k, static_cast<int>(found.size()));
    std::partial_sort(found.begin(), found.begin() + use, found.end(),
                      [](const Found& a, const Found& b) { return a.dist2 < b.dist2; });
    for (int i = 0; i < use; ++i)
      out.push_back({found[static_cast<std::size_t>(i)].index,
                     std::sqrt(found[static_cast<std::size_t>(i)].dist2)});
    return out;
  }

  std::optional<rem::IdwInterpolator::EstimateWithDistance> estimate_with_distance(
      geo::Vec2 p, int k, double power, double max_radius_m) const {
    const std::vector<rem::IdwInterpolator::Neighbor> neighbors = nearest(p, k, max_radius_m);
    if (neighbors.empty()) return std::nullopt;
    std::vector<double> dist, val;
    for (const rem::IdwInterpolator::Neighbor& nb : neighbors) {
      const double v = samples_[static_cast<std::size_t>(nb.index)].value;
      if (nb.distance_m < 1e-6) return rem::IdwInterpolator::EstimateWithDistance{v, nb.distance_m};
      dist.push_back(nb.distance_m);
      val.push_back(v);
    }
    const kernels::IdwAccum acc = kernels::idw_weigh(dist.data(), val.data(), dist.size(), power);
    return rem::IdwInterpolator::EstimateWithDistance{acc.vsum / acc.wsum,
                                                      neighbors.front().distance_m};
  }

 private:
  std::vector<rem::IdwSample> samples_;
  geo::Grid2D<std::vector<int>> buckets_;
};

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

constexpr int kIdwKs[] = {1, 8, 40};
constexpr double kIdwRadii[] = {std::numeric_limits<double>::infinity(), 1e9, 12.5, 3.0};

/// Samples at the centers of a 1 m lattice over a 64 m square, so distances
/// from a lattice query tie everywhere (also at the k-th boundary): a sparse
/// spread over the whole area when `clustered` is false, else a dense patch
/// in one corner that far queries reach only after many rings.
std::vector<rem::IdwSample> lattice_samples(bool clustered, std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_int_distribution<int> cell(0, clustered ? 9 : 63);
  std::uniform_real_distribution<double> value(-20.0, 30.0);
  std::vector<rem::IdwSample> out;
  for (int i = 0; i < (clustered ? 60 : 250); ++i)
    out.push_back({{cell(rng) + 0.5, cell(rng) + 0.5}, value(rng)});
  return out;
}

/// Corners, edge midpoints, exact hits on samples, and every lattice center
/// and lattice corner of a coarse sweep.
std::vector<geo::Vec2> idw_queries(const std::vector<rem::IdwSample>& samples) {
  std::vector<geo::Vec2> q{{0.0, 0.0},  {64.0, 0.0},  {0.0, 64.0}, {64.0, 64.0},
                           {32.0, 0.0}, {0.0, 32.5},  {64.0, 17.5}, {40.5, 64.0}};
  for (std::size_t i = 0; i < samples.size(); i += 7) q.push_back(samples[i].position);
  for (int y = 0; y <= 64; y += 3)
    for (int x = 0; x <= 64; x += 3) {
      q.push_back({x + 0.5, y + 0.5});
      q.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  return q;
}

TEST(IdwRingSearchTest, MatchesFullSquareSearchBitForBit) {
  const geo::Rect area = geo::Rect::square(64.0);
  for (const bool clustered : {false, true}) {
    const std::vector<rem::IdwSample> samples = lattice_samples(clustered, clustered ? 5 : 6);
    const rem::IdwInterpolator idw(samples, area);
    const FullSquareIdw oracle(samples, area);
    const std::vector<geo::Vec2> queries = idw_queries(samples);
    rem::IdwInterpolator::Scratch scratch;  // reused across every query below
    std::size_t exact_hits = 0;
    for (const int k : kIdwKs) {
      for (const double radius : kIdwRadii) {
        for (const geo::Vec2 p : queries) {
          SCOPED_TRACE(::testing::Message() << "clustered " << clustered << " k " << k
                                            << " radius " << radius << " at " << p.x << ","
                                            << p.y);
          const auto got = idw.nearest(p, k, radius);
          const auto want = oracle.nearest(p, k, radius);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].index, want[i].index) << "neighbor " << i;
            ASSERT_TRUE(same_bits(got[i].distance_m, want[i].distance_m)) << "neighbor " << i;
          }
          const auto want_est = oracle.estimate_with_distance(p, k, 2.0, radius);
          for (const auto& got_est : {idw.estimate_with_distance(p, k, 2.0, radius),
                                      idw.estimate_with_distance(p, k, 2.0, radius, scratch)}) {
            ASSERT_EQ(got_est.has_value(), want_est.has_value());
            if (!want_est) continue;
            ASSERT_TRUE(same_bits(got_est->value, want_est->value));
            ASSERT_TRUE(same_bits(got_est->nearest_m, want_est->nearest_m));
          }
          exact_hits += want_est && want_est->nearest_m < 1e-6;
        }
      }
    }
    EXPECT_GT(exact_hits, 0u);
  }
}

TEST(IdwRingSearchTest, EmptyInterpolatorFindsNothing) {
  const rem::IdwInterpolator idw({}, geo::Rect::square(64.0));
  rem::IdwInterpolator::Scratch scratch;
  for (const int k : kIdwKs) {
    EXPECT_TRUE(idw.nearest({10.0, 10.0}, k, 1e9).empty());
    EXPECT_FALSE(idw.estimate_with_distance({0.0, 64.0}, k, 2.0, 1e9, scratch).has_value());
  }
}

/// `bank`'s estimate slab for `ue` as estimate_all computed it before the
/// exact raster: the same per-cell rule over the full-square search.
std::vector<double> full_square_slab(const rem::RemBank& bank, std::size_t ue,
                                     const rem::IdwParams& params) {
  const geo::Rect area = bank.area();
  const double cell = bank.cell_size();
  const auto center = [&](int ix, int iy) {
    return geo::Vec2{area.min.x + (ix + 0.5) * cell, area.min.y + (iy + 0.5) * cell};
  };
  std::vector<rem::IdwSample> samples;
  for (int iy = 0; iy < bank.ny(); ++iy)
    for (int ix = 0; ix < bank.nx(); ++ix)
      if (const std::optional<double> m = bank.measured_snr(ue, {ix, iy}))
        samples.push_back({center(ix, iy), *m});
  const FullSquareIdw oracle(std::move(samples), area);
  const rem::RemBank::BackgroundSource source = bank.background_source(ue);
  const bool blend =
      source == rem::RemBank::BackgroundSource::kPrior && params.background_blend_m > 0.0;
  const geo::FieldView<const double> background = bank.background(ue);
  std::vector<double> out;
  for (int iy = 0; iy < bank.ny(); ++iy) {
    for (int ix = 0; ix < bank.nx(); ++ix) {
      const double bg = background[out.size()];
      if (const std::optional<double> m = bank.measured_snr(ue, {ix, iy})) {
        out.push_back(*m);
        continue;
      }
      const auto est = oracle.estimate_with_distance(center(ix, iy), params.k_neighbors,
                                                     params.power, params.max_radius_m);
      if (est && blend) {
        const double w = std::exp(-est->nearest_m / params.background_blend_m);
        out.push_back(w * est->value + (1.0 - w) * bg);
      } else if (est) {
        out.push_back(est->value);
      } else {
        out.push_back(source != rem::RemBank::BackgroundSource::kNone ? bg : 0.0);
      }
    }
  }
  return out;
}

TEST(IdwRingSearchTest, BankSlabMatchesFullSquareSearch) {
  // A 1 m raster over 64 m with deposits on the cell centers (a lattice):
  // a model-seeded UE, a prior-blended UE and a UE with no background.
  const geo::Rect area = geo::Rect::square(64.0);
  rem::RemBank prior(area, 1.0, 60.0);
  prior.add_ue({30.0, 30.0, 1.5});
  prior.add_measurement(0, {20.5, 20.5}, 8.0);
  const rf::FsplChannel fspl(2.6e9);
  geo::Mt19937_64 rng(41);
  std::uniform_real_distribution<double> snr(-25.0, 35.0);
  for (const int k : kIdwKs) {
    for (const double radius : {1e9, 12.5}) {
      rem::IdwParams params;
      params.k_neighbors = k;
      params.max_radius_m = radius;
      params.background_blend_m = 20.0;
      rem::RemBank bank(area, 1.0, 60.0);
      for (std::size_t ue = 0; ue < 3; ++ue) bank.add_ue({10.0 + 20.0 * ue, 40.0, 1.5});
      bank.seed_from_model(0, fspl, rf::LinkBudget{});
      bank.seed_from(1, prior, params);
      const std::vector<double> prior_slab = full_square_slab(prior, 0, params);
      EXPECT_EQ(std::memcmp(&bank.background(1)[0], prior_slab.data(),
                            prior_slab.size() * sizeof(double)),
                0);
      for (const rem::IdwSample& s : lattice_samples(false, 7 + k))
        bank.add_measurement(0, s.position, s.value);
      for (const rem::IdwSample& s : lattice_samples(true, 8 + k)) {
        bank.add_measurement(1, s.position, s.value);
        bank.add_measurement(2, s.position, snr(rng));
      }
      for (const int workers : {1, 8}) {
        SCOPED_TRACE(::testing::Message() << "k " << k << " radius " << radius << " workers "
                                          << workers);
        core::set_global_workers(workers);
        rem::RemBank live = bank;
        live.estimate_all(params);
        core::set_global_workers(0);
        for (std::size_t ue = 0; ue < live.ue_count(); ++ue) {
          const std::vector<double> want = full_square_slab(bank, ue, params);
          const geo::FieldView<const double> got = live.estimate(ue);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(&got[0], want.data(), want.size() * sizeof(double)), 0)
              << "UE " << ue;
        }
      }
    }
  }
}

}  // namespace
}  // namespace skyran

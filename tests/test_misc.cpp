// Odds-and-ends coverage: weighted placement, coverage thresholds, WiFi
// backhaul NLOS penalty, REM restore contracts and table formatting.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "lte/backhaul.hpp"
#include "rem/bank.hpp"
#include "rem/placement.hpp"
#include "sim/table.hpp"
#include "terrain/synth.hpp"

namespace skyran {
namespace {

TEST(WeightedPlacementTest, WeightsSteerTheArgmax) {
  // UE a likes the left, UE b likes the right; weighting b 10x must pull
  // the placement right.
  geo::Grid2D<double> a(geo::Rect::square(100.0), 10.0, 0.0);
  geo::Grid2D<double> b(geo::Rect::square(100.0), 10.0, 0.0);
  a.for_each([&](geo::CellIndex c, double& v) { v = 20.0 - c.ix * 2.0; });
  b.for_each([&](geo::CellIndex c, double& v) { v = c.ix * 2.0; });
  const std::vector<geo::Grid2D<double>> grids{a, b};
  const std::vector<geo::FieldView<const double>> maps = geo::views_of(grids);
  const std::vector<double> favor_b{1.0, 10.0};
  const rem::Placement p = rem::choose_placement(
      maps, rem::PlacementObjective::kMaxWeighted, favor_b);
  EXPECT_GT(p.position.x, 70.0);
  const std::vector<double> favor_a{10.0, 1.0};
  const rem::Placement q = rem::choose_placement(
      maps, rem::PlacementObjective::kMaxWeighted, favor_a);
  EXPECT_LT(q.position.x, 30.0);
}

TEST(CoverageMapTest, ThresholdParameterRespected) {
  geo::Grid2D<double> m(geo::Rect::square(50.0), 10.0, 5.0);
  const geo::FieldView<const double> view(m);
  const std::span<const geo::FieldView<const double>> maps{&view, 1};
  EXPECT_DOUBLE_EQ(rem::coverage_map(maps, 0.0).at(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(rem::coverage_map(maps, 10.0).at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(rem::coverage_map(maps, 5.0).at(2, 2), 1.0);  // inclusive
}

TEST(BackhaulTest, WifiNlosPenalty) {
  auto blocked = std::make_shared<terrain::Terrain>(terrain::make_flat(400.0));
  for (int ix = 40; ix < 50; ++ix)
    for (int iy = 0; iy < 400; ++iy) {
      blocked->cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      blocked->cells().at(ix, iy).clutter_height = 150.0F;
    }
  const rf::RayTraceChannel ch(std::shared_ptr<const terrain::Terrain>(blocked), {}, 3);
  lte::BackhaulConfig cfg;
  cfg.tech = lte::BackhaulTech::kWifi;
  cfg.gateway = {10.0, 10.0, 10.0};
  const lte::Backhaul bh(ch, cfg);
  // Same distance, LOS (high) vs NLOS (low, behind the slab): factor ~4.
  const double los = bh.capacity_bps({10.0, 210.0, 60.0});
  const double nlos = bh.capacity_bps({210.0, 10.0, 60.0});
  EXPECT_NEAR(los / nlos, 4.0, 0.5);
}

TEST(RemTest, RestoreMeasurementContracts) {
  rem::RemBank r(geo::Rect::square(50.0), 10.0, 40.0);
  r.add_ue({10.0, 10.0, 1.5});
  EXPECT_THROW(r.restore_measurement(0, {0, 0}, 5.0, 0), ContractViolation);
  EXPECT_THROW(r.restore_measurement(0, {5, 0}, 5.0, 1), ContractViolation);
  EXPECT_THROW(r.restore_measurement(1, {0, 0}, 5.0, 1), ContractViolation);
  r.restore_measurement(0, {0, 0}, 6.0, 2);
  EXPECT_DOUBLE_EQ(*r.measured_snr(0, {0, 0}), 3.0);
  EXPECT_EQ(r.measured_cells(0), 1u);
  // Restoring over an existing cell replaces, not double-counts.
  r.restore_measurement(0, {0, 0}, 10.0, 5);
  EXPECT_DOUBLE_EQ(*r.measured_snr(0, {0, 0}), 2.0);
  EXPECT_EQ(r.measurement_count(0, {0, 0}), 5);
  EXPECT_EQ(r.measured_cells(0), 1u);
}

TEST(RemTest, RestoreBackgroundContracts) {
  using Source = rem::RemBank::BackgroundSource;
  rem::RemBank r(geo::Rect::square(50.0), 10.0, 40.0);
  r.add_ue({10.0, 10.0, 1.5});
  r.estimate_all();
  const std::vector<double> short_raster(24, 1.0);
  EXPECT_THROW(r.restore_background(0, short_raster, Source::kModel), ContractViolation);
  std::vector<double> raster(25);
  for (std::size_t i = 0; i < raster.size(); ++i) raster[i] = static_cast<double>(i);
  r.restore_background(0, raster, Source::kPrior);
  EXPECT_EQ(r.background_source(0), Source::kPrior);
  EXPECT_EQ(r.background(0).at({3, 2}), 13.0);
  // A restored background invalidates the cached estimate.
  EXPECT_FALSE(r.estimates_current());
  r.estimate_all();
  EXPECT_EQ(r.estimate(0).at({3, 2}), 13.0);  // nothing measured: background
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(sim::Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(sim::Table::num(-0.5, 1), "-0.5");
  EXPECT_EQ(sim::Table::num(1e6, 0), "1000000");
}

}  // namespace
}  // namespace skyran

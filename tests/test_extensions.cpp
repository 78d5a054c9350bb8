// Tests for the release-surface extensions: CSV table export, the coverage
// placement objective, the battery reserve guard, and the umbrella header.
#include <gtest/gtest.h>

#include <sstream>

#include "skyran.hpp"  // umbrella: must compile standalone
#include "rem/kriging.hpp"
#include "rem/layered.hpp"
#include "sim/table.hpp"

namespace skyran {
namespace {

TEST(CsvTest, QuotesSpecialCells) {
  sim::Table t({"name", "note"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "line\nbreak"});
  std::ostringstream os;
  t.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name,note\n"), std::string::npos);
  EXPECT_NE(out.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(CoverageObjectiveTest, MapCountsServedUes) {
  geo::Grid2D<double> a(geo::Rect::square(100.0), 10.0, 10.0);   // always served
  geo::Grid2D<double> b(geo::Rect::square(100.0), 10.0, -20.0);  // never served
  const std::vector<geo::Grid2D<double>> maps{a, b};
  const geo::Grid2D<double> cov = rem::coverage_map(geo::views_of(maps));
  EXPECT_DOUBLE_EQ(cov.at(3, 3), 0.5);
}

TEST(CoverageObjectiveTest, PlacementPrefersServingMore) {
  // UE a served only on the left half; UE b served everywhere. Max-coverage
  // must pick the left half (2/2 served) over the right (1/2).
  geo::Grid2D<double> a(geo::Rect::square(100.0), 10.0, 0.0);
  a.for_each([&](geo::CellIndex c, double& v) { v = c.ix < 5 ? 5.0 : -30.0; });
  geo::Grid2D<double> b(geo::Rect::square(100.0), 10.0, 5.0);
  const rem::Placement p = rem::choose_placement(
      geo::views_of(std::vector<geo::Grid2D<double>>{a, b}), rem::PlacementObjective::kMaxCoverage);
  EXPECT_LT(p.position.x, 50.0);
}

TEST(BatteryReserveTest, LowBatterySkipsMeasurement) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = 23;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 4, 24);
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 800.0;
  cfg.localization_mode = core::LocalizationMode::kPerfect;
  cfg.battery_reserve_fraction = 1.01;  // reserve above full: nothing may fly
  core::SkyRan skyran(world, cfg, 25);
  const core::EpochReport r = skyran.run_epoch();
  EXPECT_DOUBLE_EQ(r.measurement_flight_m, 0.0);
  // Placement still produced (from backgrounds), inside the area.
  EXPECT_TRUE(world.area().contains(r.position));
}

}  // namespace
}  // namespace skyran

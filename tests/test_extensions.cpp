// Tests for the release-surface extensions: ESRI ASCII-grid terrain
// interchange, CSV table export, the coverage placement objective, the
// battery reserve guard, and the umbrella header.
#include <gtest/gtest.h>

#include <sstream>

#include "skyran.hpp"  // umbrella: must compile standalone
#include "sim/table.hpp"

namespace skyran {
namespace {

TEST(EsriIoTest, DtmDsmRoundTrip) {
  const terrain::Terrain t = terrain::make_campus(19, 4.0);
  std::stringstream dtm, dsm;
  terrain::save_esri_dtm(t, dtm);
  terrain::save_esri_dsm(t, dsm);
  const terrain::Terrain r = terrain::load_esri_pair(dtm, dsm);
  EXPECT_TRUE(t.cells().same_geometry(r.cells()));
  // Heights round-trip; classification collapses to the default clutter.
  int checked = 0;
  for (int i = 0; i < t.cells().nx(); i += 5) {
    for (int j = 0; j < t.cells().ny(); j += 5) {
      const terrain::TerrainCell& a = t.cells().at(i, j);
      const terrain::TerrainCell& b = r.cells().at(i, j);
      EXPECT_NEAR(a.ground, b.ground, 1e-3);
      EXPECT_NEAR(a.ground + a.clutter_height, b.ground + b.clutter_height,
                  a.clutter_height > 2.0F ? 1e-3 : 2.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(EsriIoTest, HeaderOrderAndNodata) {
  std::stringstream dtm(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -9999\n"
      "1 2\n-9999 4\n");
  std::stringstream dsm(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -9999\n"
      "1 22\n0 4\n");
  const terrain::Terrain t = terrain::load_esri_pair(dtm, dsm);
  // NODATA ground became 0; first file row is the NORTH row (iy = 1).
  EXPECT_FLOAT_EQ(t.cells().at(0, 1).ground, 1.0F);
  EXPECT_FLOAT_EQ(t.cells().at(1, 1).ground, 2.0F);
  EXPECT_FLOAT_EQ(t.cells().at(0, 0).ground, 0.0F);
  // DSM - DTM = 20 at (1, north): clutter.
  EXPECT_EQ(t.cells().at(1, 1).clutter, terrain::Clutter::kBuilding);
  EXPECT_FLOAT_EQ(t.cells().at(1, 1).clutter_height, 20.0F);
}

TEST(EsriIoTest, MalformedInputsRejected) {
  std::stringstream junk("this is not a grid");
  std::stringstream dsm("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "NODATA_value -9999\n5\n");
  EXPECT_THROW(terrain::load_esri_pair(junk, dsm), std::runtime_error);
  std::stringstream small("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                          "NODATA_value -9999\n5\n");
  std::stringstream mismatched("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                               "NODATA_value -9999\n5 6\n");
  EXPECT_THROW(terrain::load_esri_pair(small, mismatched), std::runtime_error);
}

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
  const geo::Grid2D<double> cov = rem::coverage_map(maps);
  EXPECT_DOUBLE_EQ(cov.at(3, 3), 0.5);
}

TEST(CoverageObjectiveTest, PlacementPrefersServingMore) {
  // UE a served only on the left half; UE b served everywhere. Max-coverage
  // must pick the left half (2/2 served) over the right (1/2).
  geo::Grid2D<double> a(geo::Rect::square(100.0), 10.0, 0.0);
  a.for_each([&](geo::CellIndex c, double& v) { v = c.ix < 5 ? 5.0 : -30.0; });
  geo::Grid2D<double> b(geo::Rect::square(100.0), 10.0, 5.0);
  const rem::Placement p = rem::choose_placement(std::vector<geo::Grid2D<double>>{a, b},
                                                 rem::PlacementObjective::kMaxCoverage);
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

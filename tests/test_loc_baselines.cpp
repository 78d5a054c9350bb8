// Tests for the macro-cell localization baselines (E-CID, fingerprinting,
// UL-TDoA) and their relative accuracy ordering vs SkyRAN's approach.
#include <gtest/gtest.h>


#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "geo/stats.hpp"
#include "localization/baselines.hpp"
#include "mobility/deployment.hpp"
#include "sim/world.hpp"

namespace skyran::localization {
namespace {

sim::World flat_world(std::uint64_t seed) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kFlat;
  wc.seed = seed;
  return sim::World(wc);
}

TEST(MacroSitesTest, RingAroundArea) {
  const geo::Rect area = geo::Rect::square(300.0);
  const auto sites = default_macro_sites(area, 3);
  ASSERT_EQ(sites.size(), 3u);
  for (const geo::Vec3& s : sites) {
    EXPECT_FALSE(area.contains(s.xy()));  // towers sit outside the hotspot
    EXPECT_DOUBLE_EQ(s.z, 30.0);
  }
  EXPECT_THROW(default_macro_sites(area, 0), ContractViolation);
}

TEST(EcidTest, ErrorScalesWithRange) {
  // With an unknown azimuth, the expected error grows with UE-site range.
  const geo::Rect area = geo::Rect::square(300.0);
  const geo::Vec3 site{-75.0, 150.0, 30.0};
  geo::Mt19937_64 rng(1);
  std::vector<double> errs;
  const geo::Vec3 ue{250.0, 150.0, 1.5};
  for (int i = 0; i < 200; ++i)
    errs.push_back(ecid_localize(site, ue, area, {}, rng).dist(ue.xy()));
  // Ring radius ~325 m: typical error is large (tens to hundreds of m).
  EXPECT_GT(geo::median(errs), 50.0);
}

TEST(EcidTest, QuantizationFloorsError) {
  // Even a UE right next to the tower suffers the 78 m TA quantization.
  const geo::Rect area({-300.0, -300.0}, {300.0, 300.0});
  const geo::Vec3 site{0.0, 0.0, 30.0};
  const geo::Vec3 ue{35.0, 0.0, 1.5};
  geo::Mt19937_64 rng(2);
  EcidConfig cfg;
  cfg.ta_noise_m = 0.0;
  std::vector<double> errs;
  for (int i = 0; i < 100; ++i)
    errs.push_back(ecid_localize(site, ue, area, cfg, rng).dist(ue.xy()));
  // Range quantizes to 0 or 78 m; either way the error is tens of meters.
  EXPECT_GT(geo::median(errs), 20.0);
}

TEST(FingerprintTest, CleanDatabaseLocalizesToGrid) {
  const sim::World world = flat_world(3);
  const auto sites = default_macro_sites(world.area());
  FingerprintConfig cfg;
  cfg.grid_m = 20.0;
  cfg.train_noise_db = 0.0;
  cfg.query_noise_db = 0.0;
  const FingerprintDatabase db(world.channel(), world.budget(), sites, world.area(), cfg, 4);
  EXPECT_GT(db.size(), 100u);
  geo::Mt19937_64 rng(5);
  const geo::Vec3 ue{123.0, 87.0, 1.5};
  const geo::Vec2 est = db.localize(ue, rng);
  // Noise-free matching lands within ~a grid cell.
  EXPECT_LT(est.dist(ue.xy()), 1.5 * cfg.grid_m);
}

TEST(FingerprintTest, NoiseDegradesAccuracy) {
  const sim::World world = flat_world(3);
  const auto sites = default_macro_sites(world.area());
  FingerprintConfig noisy;
  noisy.train_noise_db = 6.0;
  noisy.query_noise_db = 6.0;
  const FingerprintDatabase db(world.channel(), world.budget(), sites, world.area(), noisy, 4);
  geo::Mt19937_64 rng(6);
  std::vector<double> errs;
  for (int i = 0; i < 30; ++i) {
    const geo::Vec3 ue{40.0 + i * 7.0, 260.0 - i * 6.0, 1.5};
    errs.push_back(db.localize(ue, rng).dist(ue.xy()));
  }
  EXPECT_GT(geo::median(errs), 15.0);  // flat-earth RSS is ambiguous under noise
}

TEST(TdoaTest, PerfectSyncIsAccurate) {
  const sim::World world = flat_world(7);
  const auto sites = default_macro_sites(world.area(), 4);
  TdoaConfig cfg;
  cfg.sync_error_ns = 0.0;
  cfg.toa_noise_ns = 0.0;
  cfg.grid = 80;
  geo::Mt19937_64 rng(8);
  const geo::Vec3 ue{200.0, 110.0, 1.5};
  const geo::Vec2 est = tdoa_localize(sites, ue, world.area(), cfg, rng);
  EXPECT_LT(est.dist(ue.xy()), 2.0 * world.area().width() / cfg.grid);
}

TEST(TdoaTest, SyncErrorDominates) {
  const sim::World world = flat_world(7);
  const auto sites = default_macro_sites(world.area(), 3);
  geo::Mt19937_64 rng(9);
  TdoaConfig loose;
  loose.sync_error_ns = 200.0;  // 60 m of range error per site
  std::vector<double> errs;
  for (int i = 0; i < 30; ++i) {
    const geo::Vec3 ue{60.0 + i * 6.0, 90.0 + i * 5.0, 1.5};
    errs.push_back(tdoa_localize(sites, ue, world.area(), loose, rng).dist(ue.xy()));
  }
  EXPECT_GT(geo::median(errs), 20.0);
  EXPECT_THROW(tdoa_localize({sites[0], sites[1]}, {0, 0, 1.5}, world.area(), loose, rng),
               ContractViolation);
}

TEST(OrderingTest, TdoaBeatsEcid) {
  // The classic ordering on the same world: TDoA < fingerprint/E-CID error.
  const sim::World world = flat_world(11);
  const auto sites = default_macro_sites(world.area(), 3);
  geo::Mt19937_64 rng(12);
  std::vector<double> tdoa_errs, ecid_errs;
  for (int i = 0; i < 40; ++i) {
    const geo::Vec3 ue{30.0 + i * 6.0, 250.0 - i * 5.0, 1.5};
    tdoa_errs.push_back(tdoa_localize(sites, ue, world.area(), {}, rng).dist(ue.xy()));
    ecid_errs.push_back(ecid_localize(sites[0], ue, world.area(), {}, rng).dist(ue.xy()));
  }
  EXPECT_LT(geo::median(tdoa_errs), geo::median(ecid_errs));
}

}  // namespace
}  // namespace skyran::localization

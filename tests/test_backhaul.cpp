// Tests for the backhaul link model: per-technology capacity curves and the
// end-to-end bottleneck arithmetic.
#include <gtest/gtest.h>

#include <memory>

#include "geo/contract.hpp"
#include "lte/backhaul.hpp"
#include "terrain/synth.hpp"

namespace skyran::lte {
namespace {

class BackhaulFixture : public ::testing::Test {
 protected:
  BackhaulFixture()
      : terrain_(std::make_shared<const terrain::Terrain>(terrain::make_flat(400.0))),
        channel_(terrain_, {}, 3) {}

  BackhaulConfig config(BackhaulTech tech) const {
    BackhaulConfig cfg;
    cfg.tech = tech;
    cfg.gateway = {10.0, 10.0, 10.0};
    return cfg;
  }

  std::shared_ptr<const terrain::Terrain> terrain_;
  rf::RayTraceChannel channel_;
};

TEST_F(BackhaulFixture, LteTetherIsFlatInCoverage) {
  const Backhaul bh(channel_, config(BackhaulTech::kLteTether));
  EXPECT_DOUBLE_EQ(bh.capacity_bps({100.0, 100.0, 60.0}), 80e6);
  EXPECT_DOUBLE_EQ(bh.capacity_bps({350.0, 350.0, 120.0}), 80e6);
}

TEST_F(BackhaulFixture, MmWaveRangeAndDecay) {
  const Backhaul bh(channel_, config(BackhaulTech::kMmWave));
  // Close: peak rate.
  EXPECT_DOUBLE_EQ(bh.capacity_bps({110.0, 10.0, 60.0}), 1.2e9);
  // Past half range: decaying but positive.
  const double mid = bh.capacity_bps({10.0 + 600.0, 10.0, 60.0});
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.2e9);
  // Past range: zero. (Flat terrain keeps everything LOS.)
  EXPECT_DOUBLE_EQ(bh.capacity_bps({10.0 + 900.0, 10.0, 60.0}), 0.0);
}

TEST_F(BackhaulFixture, MmWaveRequiresLos) {
  // Drop a slab between gateway and UAV.
  auto blocked = std::make_shared<terrain::Terrain>(terrain::make_flat(400.0));
  for (int ix = 40; ix < 50; ++ix)
    for (int iy = 0; iy < 400; ++iy) {
      blocked->cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      blocked->cells().at(ix, iy).clutter_height = 120.0F;
    }
  const rf::RayTraceChannel ch(std::shared_ptr<const terrain::Terrain>(blocked), {}, 3);
  const Backhaul bh(ch, config(BackhaulTech::kMmWave));
  EXPECT_DOUBLE_EQ(bh.capacity_bps({200.0, 10.0, 60.0}), 0.0);
}

TEST_F(BackhaulFixture, WifiHalvesWithRange) {
  const Backhaul bh(channel_, config(BackhaulTech::kWifi));
  const double near = bh.capacity_bps({10.0, 10.0, 60.0});
  const double far = bh.capacity_bps({10.0 + 250.0, 10.0, 10.0});
  EXPECT_NEAR(far / near, 0.5, 0.1);
}

TEST_F(BackhaulFixture, EndToEndBottleneck) {
  const Backhaul bh(channel_, config(BackhaulTech::kLteTether));  // 80 Mbit/s pipe
  const geo::Vec3 uav{100.0, 100.0, 60.0};
  // Access side offers 3 x 20 = 60 < 80: untouched.
  const std::vector<double> light{20e6, 20e6, 20e6};
  EXPECT_NEAR(bh.end_to_end_mean_bps(light, uav), 20e6, 1.0);
  // Access offers 4 x 30 = 120 > 80: squeezed proportionally to 80/4 each.
  const std::vector<double> heavy{30e6, 30e6, 30e6, 30e6};
  EXPECT_NEAR(bh.end_to_end_mean_bps(heavy, uav), 20e6, 1.0);
}

TEST_F(BackhaulFixture, Contracts) {
  const Backhaul bh(channel_, config(BackhaulTech::kLteTether));
  EXPECT_THROW(bh.end_to_end_mean_bps({}, {0, 0, 60}), ContractViolation);
  const std::vector<double> negative{-1.0};
  EXPECT_THROW(bh.end_to_end_mean_bps(negative, {0, 0, 60}), ContractViolation);
}

}  // namespace
}  // namespace skyran::lte

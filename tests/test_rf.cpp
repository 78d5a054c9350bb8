// Tests for the RF propagation substrate: unit conversions, closed-form
// models, ray marching, shadowing, channels and the link budget.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "geo/contract.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "rf/models.hpp"
#include "rf/raytrace.hpp"
#include "rf/shadowing.hpp"
#include "rf/units.hpp"
#include "terrain/synth.hpp"

namespace skyran::rf {
namespace {

TEST(UnitsTest, DbLinearRoundTrip) {
  EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
  EXPECT_DOUBLE_EQ(db_to_linear(10.0), 10.0);
  EXPECT_DOUBLE_EQ(db_to_linear(3.0), std::pow(10.0, 0.3));
  EXPECT_NEAR(linear_to_db(db_to_linear(-17.3)), -17.3, 1e-12);
}

TEST(UnitsTest, NoiseFloorTenMegahertz) {
  // -174 + 10log10(10e6) + 7 = -97 dBm: the textbook LTE-10MHz floor.
  EXPECT_NEAR(noise_floor_dbm(10e6, 7.0), -97.0, 0.01);
}

TEST(ModelsTest, FsplMatchesTextbookValues) {
  // 2.6 GHz at 100 m: 32.45 + 20log10(2600) + 20log10(0.1) = 80.75 dB.
  EXPECT_NEAR(fspl_db(100.0, 2.6e9), 80.75, 0.05);
  // Doubling distance adds 6.02 dB.
  EXPECT_NEAR(fspl_db(200.0, 2.6e9) - fspl_db(100.0, 2.6e9), 6.02, 0.01);
  // Doubling frequency adds 6.02 dB.
  EXPECT_NEAR(fspl_db(100.0, 5.2e9) - fspl_db(100.0, 2.6e9), 6.02, 0.01);
}

TEST(ModelsTest, FsplClampsBelowOneMeter) {
  EXPECT_DOUBLE_EQ(fspl_db(0.0, 2.6e9), fspl_db(1.0, 2.6e9));
  EXPECT_DOUBLE_EQ(fspl_db(0.5, 2.6e9), fspl_db(1.0, 2.6e9));
}

TEST(ModelsTest, LogDistanceReducesToFsplForExponentTwo) {
  EXPECT_NEAR(log_distance_db(150.0, 2.6e9, 2.0), fspl_db(150.0, 2.6e9), 1e-9);
  // Exponent 3.5 loses more with distance.
  EXPECT_GT(log_distance_db(150.0, 2.6e9, 3.5), fspl_db(150.0, 2.6e9));
}

TEST(ModelsTest, ContractsOnBadInputs) {
  EXPECT_THROW(fspl_db(10.0, 0.0), ContractViolation);
  EXPECT_THROW(log_distance_db(10.0, 2.6e9, 0.0), ContractViolation);
  EXPECT_THROW(log_distance_db(10.0, 2.6e9, 2.0, 0.0), ContractViolation);
}

TEST(RayTraceTest, ClearRayOverFlatGround) {
  const terrain::Terrain t = terrain::make_flat(100.0);
  const RayObstruction r = trace_ray(t, {10.0, 10.0, 50.0}, {90.0, 90.0, 2.0});
  EXPECT_TRUE(r.line_of_sight());
  EXPECT_NEAR(r.total_length_m, std::sqrt(80.0 * 80.0 * 2 + 48.0 * 48.0), 1e-9);
}

TEST(RayTraceTest, BuildingBlocksLowRay) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (int ix = 40; ix < 60; ++ix) {
    for (int iy = 0; iy < 100; ++iy) {
      t.cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      t.cells().at(ix, iy).clutter_height = 30.0F;
    }
  }
  // Horizontal ray at 10 m crosses the 20 m-thick slab.
  const RayObstruction low = trace_ray(t, {0.0, 50.0, 10.0}, {100.0, 50.0, 10.0});
  EXPECT_FALSE(low.line_of_sight());
  EXPECT_NEAR(low.building_length_m, 20.0, 1.5);
  // Ray above the roof is clear.
  const RayObstruction high = trace_ray(t, {0.0, 50.0, 35.0}, {100.0, 50.0, 35.0});
  EXPECT_TRUE(high.line_of_sight());
}

TEST(RayTraceTest, SlantedRayPartialObstruction) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (int ix = 40; ix < 60; ++ix)
    for (int iy = 40; iy < 60; ++iy) {
      t.cells().at(ix, iy).clutter = terrain::Clutter::kFoliage;
      t.cells().at(ix, iy).clutter_height = 20.0F;
    }
  // Descending ray clears the canopy early on and dips into it later.
  const RayObstruction r = trace_ray(t, {0.0, 50.0, 40.0}, {100.0, 50.0, 2.0});
  EXPECT_GT(r.foliage_length_m, 0.0);
  EXPECT_DOUBLE_EQ(r.building_length_m, 0.0);
}

TEST(RayTraceTest, BelowGroundDetected) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (auto& c : t.cells().raw()) c.ground = 10.0F;
  const RayObstruction r = trace_ray(t, {0.0, 0.0, 5.0}, {100.0, 100.0, 5.0});
  EXPECT_TRUE(r.below_ground);
  EXPECT_FALSE(r.line_of_sight());
}

TEST(RayTraceTest, WaterDoesNotObstructAboveGround) {
  terrain::Terrain t = terrain::make_flat(100.0);
  for (int ix = 40; ix < 60; ++ix)
    for (int iy = 0; iy < 100; ++iy) {
      t.cells().at(ix, iy).clutter = terrain::Clutter::kWater;
      t.cells().at(ix, iy).clutter_height = 5.0F;  // meaningless for water
    }
  // Horizontal ray at 1 m crosses the 20 m-wide water strip.
  const RayObstruction r = trace_ray(t, {0.0, 50.0, 1.0}, {100.0, 50.0, 1.0});
  EXPECT_DOUBLE_EQ(r.building_length_m, 0.0);
  EXPECT_DOUBLE_EQ(r.foliage_length_m, 0.0);
  EXPECT_FALSE(r.below_ground);
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r, ObstructionLossParams{}), 0.0);
}

TEST(RayTraceTest, ZeroLengthRay) {
  const terrain::Terrain t = terrain::make_flat(10.0);
  const RayObstruction r = trace_ray(t, {5.0, 5.0, 5.0}, {5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(r.total_length_m, 0.0);
  EXPECT_TRUE(r.line_of_sight());
}

TEST(RayTraceTest, ObstructionLossCapsAtMax) {
  ObstructionLossParams p;
  RayObstruction r;
  r.building_length_m = 1000.0;
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r, p), p.max_excess_db);
  r.building_length_m = 10.0;
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r, p), 10.0 * p.building_db_per_m);
  // Concrete attenuates more per meter than foliage.
  EXPECT_GT(p.building_db_per_m, p.foliage_db_per_m);
}

TEST(RayTraceTest, BelowGroundGetsFloorPenalty) {
  ObstructionLossParams p;
  RayObstruction r;
  r.below_ground = true;
  EXPECT_DOUBLE_EQ(obstruction_loss_db(r, p), p.below_ground_db);
}

TEST(KnifeEdgeTest, ClearPathNoLoss) {
  const terrain::Terrain t = terrain::make_flat(200.0);
  EXPECT_DOUBLE_EQ(knife_edge_loss_db(t, {0, 100, 50}, {200, 100, 50}, 2.6e9), 0.0);
}

TEST(KnifeEdgeTest, GrazingEdgeCostsSixDb) {
  // An edge exactly at the ray height (v = 0) costs ~6 dB (textbook value).
  terrain::Terrain t = terrain::make_flat(200.0);
  for (int iy = 0; iy < 200; ++iy) {
    t.cells().at(100, iy).clutter = terrain::Clutter::kBuilding;
    t.cells().at(100, iy).clutter_height = 30.0F;
  }
  const double loss = knife_edge_loss_db(t, {0, 100, 30.0}, {200, 100, 30.0}, 2.6e9);
  EXPECT_NEAR(loss, 6.0, 1.5);
}

TEST(KnifeEdgeTest, LossGrowsWithPenetrationDepth) {
  terrain::Terrain t = terrain::make_flat(200.0);
  for (int iy = 0; iy < 200; ++iy) {
    t.cells().at(100, iy).clutter = terrain::Clutter::kBuilding;
    t.cells().at(100, iy).clutter_height = 60.0F;
  }
  const double shallow = knife_edge_loss_db(t, {0, 100, 55.0}, {200, 100, 55.0}, 2.6e9);
  const double deep = knife_edge_loss_db(t, {0, 100, 20.0}, {200, 100, 20.0}, 2.6e9);
  EXPECT_GT(shallow, 6.0);
  EXPECT_GT(deep, shallow + 5.0);
}

TEST(KnifeEdgeTest, ChannelUsesMinOfPenetrationAndDiffraction) {
  // Deep canyon: the knife-edge field beats the capped through-building one,
  // so enabling it strictly lowers path loss there.
  auto blocked = std::make_shared<terrain::Terrain>(terrain::make_flat(200.0));
  for (int ix = 80; ix < 120; ++ix)
    for (int iy = 0; iy < 200; ++iy) {
      blocked->cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      blocked->cells().at(ix, iy).clutter_height = 80.0F;
    }
  const auto terrain_ptr = std::shared_ptr<const terrain::Terrain>(blocked);
  RayTraceChannelParams hard;
  hard.shadowing_sigma_db = 0.0;
  hard.nlos_extra_sigma_db = 0.0;
  RayTraceChannelParams soft = hard;
  soft.use_knife_edge = true;
  const RayTraceChannel ch_hard(terrain_ptr, hard, 5);
  const RayTraceChannel ch_soft(terrain_ptr, soft, 5);
  const geo::Vec3 a{10.0, 100.0, 20.0};
  const geo::Vec3 b{190.0, 100.0, 1.5};
  EXPECT_LT(ch_soft.path_loss_db(a, b), ch_hard.path_loss_db(a, b));
  // LOS links (above the roof line end to end) are untouched by the flag.
  const geo::Vec3 c{10.0, 100.0, 120.0};
  const geo::Vec3 d{190.0, 100.0, 95.0};
  EXPECT_DOUBLE_EQ(ch_soft.path_loss_db(c, d), ch_hard.path_loss_db(c, d));
}

TEST(ShadowingTest, DeterministicAndBounded) {
  const ShadowingField f(3, 4.0, 30.0);
  const geo::Vec3 a{10.0, 20.0, 60.0};
  const geo::Vec3 b{200.0, 150.0, 1.5};
  EXPECT_DOUBLE_EQ(f.loss_db(a, b), f.loss_db(a, b));
  double max_abs = 0.0;
  for (int i = 0; i < 200; ++i) {
    const geo::Vec3 p{i * 3.1, i * 2.7, 50.0};
    max_abs = std::max(max_abs, std::abs(f.loss_db(p, b)));
  }
  EXPECT_LT(max_abs, 4.0 * 4.0);  // few-sigma bound
  EXPECT_GT(max_abs, 1.0);        // but not degenerate
}

TEST(ShadowingTest, ZeroSigmaIsZeroLoss) {
  const ShadowingField f(3, 0.0, 30.0);
  EXPECT_DOUBLE_EQ(f.loss_db({0, 0, 10}, {50, 50, 1}), 0.0);
}

TEST(ChannelTest, FsplChannelMatchesModel) {
  const FsplChannel ch(2.6e9);
  EXPECT_DOUBLE_EQ(ch.path_loss_db({0, 0, 0}, {100, 0, 0}), fspl_db(100.0, 2.6e9));
  EXPECT_DOUBLE_EQ(ch.frequency_hz(), 2.6e9);
  EXPECT_THROW(FsplChannel(0.0), ContractViolation);
}

TEST(ChannelTest, RayTraceChannelSymmetricAndDeterministic) {
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_campus(5, 2.0));
  const RayTraceChannel ch(terrain, {}, 9);
  const geo::Vec3 a{50.0, 60.0, 45.0};
  const geo::Vec3 b{220.0, 180.0, 1.5};
  EXPECT_DOUBLE_EQ(ch.path_loss_db(a, b), ch.path_loss_db(b, a));
  const RayTraceChannel ch2(terrain, {}, 9);
  EXPECT_DOUBLE_EQ(ch.path_loss_db(a, b), ch2.path_loss_db(a, b));
}

TEST(ChannelTest, ObstructionIncreasesLoss) {
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_flat(200.0));
  // Insert a slab between two fixed points.
  auto blocked = std::make_shared<terrain::Terrain>(terrain::make_flat(200.0));
  for (int ix = 45; ix < 55; ++ix)
    for (int iy = 0; iy < 200; ++iy) {
      blocked->cells().at(ix, iy).clutter = terrain::Clutter::kBuilding;
      blocked->cells().at(ix, iy).clutter_height = 50.0F;
    }
  RayTraceChannelParams params;
  params.shadowing_sigma_db = 0.0;  // isolate the obstruction term
  params.nlos_extra_sigma_db = 0.0;
  const RayTraceChannel clear_ch(terrain, params, 3);
  const RayTraceChannel blocked_ch(std::shared_ptr<const terrain::Terrain>(blocked), params, 3);
  const geo::Vec3 a{10.0, 100.0, 10.0};
  const geo::Vec3 b{190.0, 100.0, 10.0};
  EXPECT_GT(blocked_ch.path_loss_db(a, b), clear_ch.path_loss_db(a, b) + 10.0);
  EXPECT_TRUE(clear_ch.line_of_sight(a, b));
  EXPECT_FALSE(blocked_ch.line_of_sight(a, b));
}

TEST(ChannelTest, NullTerrainRejected) {
  EXPECT_THROW(RayTraceChannel(nullptr, {}, 1), ContractViolation);
}

TEST(LinkBudgetTest, SnrFollowsPathLoss) {
  const LinkBudget lb;
  const double snr100 = lb.snr_db(100.0);
  EXPECT_DOUBLE_EQ(lb.snr_db(110.0), snr100 - 10.0);
  // Inverse is consistent.
  EXPECT_NEAR(lb.path_loss_for_snr_db(snr100), 100.0, 1e-9);
}

TEST(LinkBudgetTest, RssIndependentOfNoise) {
  LinkBudget lb;
  const double rss = lb.rss_dbm(95.0);
  lb.noise_figure_db += 10.0;
  EXPECT_DOUBLE_EQ(lb.rss_dbm(95.0), rss);
  EXPECT_LT(lb.snr_db(95.0), rss - lb.effective_floor_dbm() + 1e-9);
}

/// Path-loss monotonicity property over open terrain: farther is weaker.
class FsplMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FsplMonotone, LossIncreasesWithDistance) {
  const double f = GetParam();
  double prev = 0.0;
  for (double d = 10.0; d < 2000.0; d *= 1.7) {
    const double loss = fspl_db(d, f);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, FsplMonotone,
                         ::testing::Values(700e6, 1.8e9, 2.6e9, 3.5e9, 5.9e9));

/// Fig. 7-style property: path loss along a flight segment over complex
/// terrain varies by tens of dB (the reason probing time hurts, Sec 2.5).
TEST(ChannelTest, PathLossVariesAlongFlightSegment) {
  // Some 50 m segment near the campus building must show a large path-loss
  // swing (the paper's Fig. 7: ~18 dB). Search candidate rows like an
  // operator picking an illustrative segment would.
  auto terrain = std::make_shared<const terrain::Terrain>(terrain::make_campus(5, 2.0));
  const RayTraceChannel ch(terrain, {}, 9);
  const geo::Vec3 ue{150.0, 210.0, 1.5};  // north of the office block
  double best_span = 0.0;
  for (double y = 80.0; y <= 140.0; y += 10.0) {
    double lo = 1e9;
    double hi = -1e9;
    for (double x = 100.0; x <= 200.0; x += 2.0) {
      const double pl = ch.path_loss_db({x, y, 45.0}, ue);
      lo = std::min(lo, pl);
      hi = std::max(hi, pl);
    }
    best_span = std::max(best_span, hi - lo);
  }
  EXPECT_GT(best_span, 8.0);  // tens of dB in the paper; at least several here
}

}  // namespace
}  // namespace skyran::rf

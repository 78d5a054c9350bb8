// Tests for the LTE MAC: AMC tables and lte::TrafficPlane's PRB allocation
// properties.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "geo/contract.hpp"
#include "lte/amc.hpp"
#include "lte/traffic_plane.hpp"

namespace skyran::lte {
namespace {

TEST(AmcTest, CqiMonotoneInSnr) {
  int prev = 0;
  for (double snr = -15.0; snr <= 30.0; snr += 0.5) {
    const int cqi = snr_to_cqi(snr);
    EXPECT_GE(cqi, prev);
    prev = cqi;
  }
  EXPECT_EQ(snr_to_cqi(-20.0), 0);
  EXPECT_EQ(snr_to_cqi(100.0), 15);
}

TEST(AmcTest, TableBoundaries) {
  EXPECT_EQ(snr_to_cqi(-6.7), 1);
  EXPECT_EQ(snr_to_cqi(-6.8), 0);
  EXPECT_EQ(snr_to_cqi(22.7), 15);
  EXPECT_EQ(snr_to_cqi(22.6), 14);
  EXPECT_EQ(cqi_table_size(), 15);
}

TEST(AmcTest, EfficiencyMatchesSpec) {
  EXPECT_DOUBLE_EQ(cqi_efficiency(0), 0.0);
  EXPECT_DOUBLE_EQ(cqi_efficiency(1), 0.1523);
  EXPECT_DOUBLE_EQ(cqi_efficiency(15), 5.5547);
  EXPECT_THROW(cqi_efficiency(16), ContractViolation);
  EXPECT_THROW(cqi_efficiency(-1), ContractViolation);
}

TEST(AmcTest, PeakThroughputTenMegahertz) {
  const BandwidthConfig c = bandwidth_config(10.0);
  // 5.5547 b/s/Hz x 9 MHz x 0.75 ~ 37.5 Mbit/s: the SISO LTE ballpark.
  EXPECT_NEAR(throughput_bps(30.0, c) / 1e6, 37.5, 0.5);
  EXPECT_DOUBLE_EQ(throughput_bps(-10.0, c), 0.0);
}

/// A round-robin plane with no HARQ randomness, so PRB shares are exact.
TrafficPlane make_rr_plane(const std::vector<double>& snrs_db) {
  TrafficPlaneConfig cfg;
  cfg.policy = SchedulerPolicy::kRoundRobin;
  cfg.target_bler = 0.0;
  TrafficPlane plane(cfg);
  for (std::size_t i = 0; i < snrs_db.size(); ++i)
    plane.add_ue(static_cast<std::uint32_t>(61 + i), snrs_db[i], {TrafficModel::kFullBuffer});
  return plane;
}

TEST(TrafficPlaneRoundRobin, OutOfRangeUeExcluded) {
  // CQI 0 (below the lowest MCS threshold) never earns a PRB; the in-range
  // UE takes the whole carrier.
  TrafficPlane plane = make_rr_plane({20.0, -20.0});
  for (int t = 0; t < 10; ++t) {
    plane.run_ttis(1);
    EXPECT_EQ(plane.last_tti_prbs()[0], 50);
    EXPECT_EQ(plane.last_tti_prbs()[1], 0);
  }
  EXPECT_EQ(plane.served_bits(1), 0.0);
}

TEST(TrafficPlaneRoundRobin, RemainderRotatesAcrossTtis) {
  TrafficPlane plane = make_rr_plane({20.0, 20.0, 20.0});
  // 50 = 3*16 + 2: two UEs get 17 each TTI. Over 3 TTIs everyone gets 17
  // twice.
  std::vector<int> seventeens(3, 0);
  for (int t = 0; t < 3; ++t) {
    plane.run_ttis(1);
    int total = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      const int prb = plane.last_tti_prbs()[i];
      EXPECT_GE(prb, 16);
      EXPECT_LE(prb, 17);
      if (prb == 17) ++seventeens[i];
      total += prb;
    }
    EXPECT_EQ(total, 50);
  }
  EXPECT_EQ(seventeens, std::vector<int>({2, 2, 2}));
}

/// Throughput share property: with n equal UEs, each gets ~1/n of the cell.
class TrafficPlaneShare : public ::testing::TestWithParam<int> {};

TEST_P(TrafficPlaneShare, EqualUesSplitCellEvenly) {
  const int n = GetParam();
  TrafficPlane plane = make_rr_plane(std::vector<double>(static_cast<std::size_t>(n), 18.0));
  plane.run_ttis(100);
  const double total_bits = plane.report().served_bits;
  ASSERT_GT(total_bits, 0.0);
  for (std::size_t i = 0; i < plane.ue_count(); ++i)
    EXPECT_NEAR(plane.served_bits(i) / total_bits, 1.0 / n, 0.02);
}

INSTANTIATE_TEST_SUITE_P(UeCounts, TrafficPlaneShare, ::testing::Values(1, 2, 3, 5, 7, 10));

// ------------------------------------------------- MAC property tests ----

TEST(TrafficPlaneProperty, PrbConservationUnderSaturation) {
  TrafficPlaneConfig cfg;
  cfg.seed = 3;
  TrafficPlane plane(cfg);
  std::mt19937 gen(11);
  std::uniform_real_distribution<double> snr(0.0, 30.0);
  for (std::uint32_t i = 0; i < 120; ++i)
    plane.add_ue(61 + i, snr(gen), {TrafficModel::kFullBuffer});
  for (int t = 0; t < 100; ++t) {
    plane.run_ttis(1);
    const TtiDebug& d = plane.last_tti();
    int sum = 0;
    for (std::uint16_t p : plane.last_tti_prbs()) sum += p;
    EXPECT_EQ(sum, d.prb_allocated);
    EXPECT_LE(d.prb_allocated, d.prb_total);
    // 120 backlogged UEs with usable CQIs always saturate the carrier.
    EXPECT_EQ(d.prb_allocated, d.prb_total);
  }
}

TEST(TrafficPlaneProperty, NoNegativeOrNanAccounting) {
  TrafficPlaneConfig cfg;
  cfg.seed = 5;
  TrafficPlane plane(cfg);
  std::mt19937 gen(13);
  std::uniform_real_distribution<double> snr(-12.0, 32.0);
  const TrafficModel models[] = {TrafficModel::kFullBuffer, TrafficModel::kCbr,
                                 TrafficModel::kBurstyOnOff, TrafficModel::kVideo};
  for (std::uint32_t i = 0; i < 64; ++i) {
    TrafficSpec spec;
    spec.model = models[i % 4];
    spec.rate_bps = 5e5 + 1e5 * static_cast<double>(i % 7);
    plane.add_ue(61 + i, snr(gen), spec);
  }
  plane.run_ttis(512);
  for (std::size_t i = 0; i < plane.ue_count(); ++i) {
    for (double v : {plane.backlog_bits(i), plane.offered_bits(i), plane.served_bits(i),
                     plane.dropped_bits(i), plane.average_rate_bps(i),
                     plane.in_flight_bits(i)}) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
  }
  const TrafficPlaneReport r = plane.report();
  for (double v : {r.offered_bits, r.served_bits, r.dropped_bits, r.aggregate_throughput_bps,
                   r.fairness_jain, r.p50_throughput_bps, r.p90_throughput_bps,
                   r.p99_throughput_bps, r.p50_delay_ms, r.p90_delay_ms, r.p99_delay_ms}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST(TrafficPlaneProperty, ZeroBacklogUesGetZeroPrbs) {
  TrafficPlaneConfig cfg;
  cfg.seed = 9;
  TrafficPlane plane(cfg);
  // Even UEs carry full-buffer load; odd UEs run CBR at 0 bps (no arrivals,
  // never any backlog) and must never be granted a PRB.
  for (std::uint32_t i = 0; i < 20; ++i) {
    TrafficSpec spec;
    spec.model = (i % 2 == 0) ? TrafficModel::kFullBuffer : TrafficModel::kCbr;
    spec.rate_bps = 0.0;
    plane.add_ue(61 + i, 20.0, spec);
  }
  for (int t = 0; t < 64; ++t) {
    plane.run_ttis(1);
    for (std::size_t i = 1; i < plane.ue_count(); i += 2) {
      EXPECT_EQ(plane.last_tti_prbs()[i], 0);
      EXPECT_EQ(plane.served_bits(i), 0.0);
    }
  }
}

TEST(TrafficPlaneProperty, PfStarvationBound) {
  TrafficPlaneConfig cfg;
  cfg.policy = SchedulerPolicy::kProportionalFair;
  cfg.seed = 17;
  TrafficPlane plane(cfg);
  // 200 backlogged UEs onto 50 PRBs with a 25 dB SNR spread: PF must still
  // serve every UE regularly (the EWMA denominator grows for whoever is
  // served, pushing its metric down), never starving the cell-edge UEs.
  for (std::uint32_t i = 0; i < 200; ++i)
    plane.add_ue(61 + i, 5.0 + static_cast<double>(i % 26), {TrafficModel::kFullBuffer});
  plane.run_ttis(1000);
  constexpr std::int64_t kMaxGapTtis = 100;
  for (std::size_t i = 0; i < plane.ue_count(); ++i) {
    EXPECT_GT(plane.served_bits(i), 0.0) << "UE " << i << " starved";
    EXPECT_GE(plane.last_served_tti(i), plane.ttis_run() - kMaxGapTtis)
        << "UE " << i << " not served in the last " << kMaxGapTtis << " TTIs";
  }
}

TEST(TrafficPlaneProperty, RrFairnessUnderEqualSnr) {
  TrafficPlaneConfig cfg;
  cfg.policy = SchedulerPolicy::kRoundRobin;
  cfg.seed = 21;
  cfg.target_bler = 0.0;  // no HARQ randomness: shares must be exact
  TrafficPlane plane(cfg);
  for (std::uint32_t i = 0; i < 10; ++i)
    plane.add_ue(61 + i, 18.0, {TrafficModel::kFullBuffer});
  plane.run_ttis(1000);
  for (std::size_t i = 1; i < plane.ue_count(); ++i)
    EXPECT_DOUBLE_EQ(plane.served_bits(i), plane.served_bits(0));
  EXPECT_DOUBLE_EQ(plane.report().fairness_jain, 1.0);
}

}  // namespace
}  // namespace skyran::lte

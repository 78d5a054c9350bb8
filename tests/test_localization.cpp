// Tests for the localization module: the GPS-ToF pipeline, fixed-offset
// multilateration, the joint shared-offset solver and the end-to-end
// UeLocalizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "geo/mt19937.hpp"
#include "localization/localizer.hpp"
#include "localization/multilateration.hpp"
#include "localization/pipeline.hpp"
#include "mobility/deployment.hpp"
#include "rf/units.hpp"
#include "sim/faults.hpp"
#include "sim/world.hpp"
#include "uav/trajectory.hpp"

namespace skyran::localization {
namespace {

/// Synthetic tuples: perfect ranges plus a known offset and Gaussian noise.
GpsTofSeries synthetic_tuples(geo::Vec3 ue, double offset_m, double noise_sigma,
                              std::uint64_t seed, int n = 80, double aperture_m = 40.0) {
  geo::Mt19937_64 rng(seed);
  std::normal_distribution<double> unit;  // noise_sigma may be 0: scale, don't parameterize
  GpsTofSeries out;
  for (int i = 0; i < n; ++i) {
    // L-shaped flight around the area center at 60 m altitude.
    const double s = aperture_m * i / n;
    const geo::Vec3 p = i < n / 2 ? geo::Vec3{150.0 + s, 150.0, 60.0}
                                  : geo::Vec3{150.0 + aperture_m / 2.0, 150.0 + s / 2.0, 60.0};
    out.push_back({i * 0.02, p, p.dist(ue) + offset_m + noise_sigma * unit(rng)});
  }
  return out;
}

TEST(MultilaterationTest, FixedOffsetExactRecovery) {
  const geo::Vec3 ue{80.0, 220.0, 1.5};
  const GpsTofSeries tuples = synthetic_tuples(ue, 40.0, 0.0, 1);
  const MultilaterationResult fit =
      multilaterate_fixed_offset(tuples, geo::Rect::square(300.0), 1.5, 40.0);
  EXPECT_LT(fit.position.dist(ue.xy()), 0.5);
  EXPECT_LT(fit.rms_residual_m, 0.1);
}

TEST(MultilaterationTest, FixedOffsetRobustToNoise) {
  const geo::Vec3 ue{230.0, 60.0, 1.5};
  const GpsTofSeries tuples = synthetic_tuples(ue, 40.0, 2.0, 2);
  const MultilaterationResult fit =
      multilaterate_fixed_offset(tuples, geo::Rect::square(300.0), 1.5, 40.0);
  EXPECT_LT(fit.position.dist(ue.xy()), 15.0);
}

TEST(MultilaterationTest, FixedOffsetRobustToOutliers) {
  const geo::Vec3 ue{100.0, 100.0, 1.5};
  GpsTofSeries tuples = synthetic_tuples(ue, 40.0, 1.0, 3);
  // 15% gross outliers (NLOS bursts): +60 m.
  for (std::size_t i = 0; i < tuples.size(); i += 7) tuples[i].range_m += 60.0;
  const MultilaterationResult fit =
      multilaterate_fixed_offset(tuples, geo::Rect::square(300.0), 1.5, 40.0);
  EXPECT_LT(fit.position.dist(ue.xy()), 15.0);
}

TEST(MultilaterationTest, TooFewTuplesRejected) {
  GpsTofSeries three(3);
  EXPECT_THROW(multilaterate_fixed_offset(three, geo::Rect::square(100.0), 1.5, 40.0),
               ContractViolation);
}

TEST(JointTest, SharedOffsetBreaksDegeneracy) {
  // Several UEs in different directions, short aperture each: the shared
  // offset plus the calibration prior pins b, then per-UE fits are accurate.
  const std::vector<geo::Vec3> ues{
      {60.0, 60.0, 1.5}, {240.0, 70.0, 1.5}, {150.0, 260.0, 1.5}, {40.0, 220.0, 1.5}};
  std::vector<GpsTofSeries> tuples;
  std::vector<double> zs;
  for (std::size_t i = 0; i < ues.size(); ++i) {
    tuples.push_back(synthetic_tuples(ues[i], 40.0, 1.5, 10 + i, 80, 30.0));
    zs.push_back(1.5);
  }
  const JointMultilaterationResult fit =
      multilaterate_joint(tuples, geo::Rect::square(300.0), zs);
  EXPECT_NEAR(fit.shared_offset_m, 40.0, 8.0);
  for (std::size_t i = 0; i < ues.size(); ++i)
    EXPECT_LT(fit.per_ue[i].position.dist(ues[i].xy()), 15.0) << "ue " << i;
}

TEST(JointTest, SkipsUesWithoutData) {
  const geo::Vec3 ue{60.0, 60.0, 1.5};
  std::vector<GpsTofSeries> tuples{synthetic_tuples(ue, 40.0, 1.0, 20), GpsTofSeries{}};
  const std::vector<double> zs{1.5, 1.5};
  const JointMultilaterationResult fit =
      multilaterate_joint(tuples, geo::Rect::square(300.0), zs);
  ASSERT_EQ(fit.per_ue.size(), 2u);
  EXPECT_LT(fit.per_ue[0].position.dist(ue.xy()), 15.0);
  EXPECT_EQ(fit.per_ue[1].iterations, 0);  // untouched default
}

TEST(JointTest, Contracts) {
  const std::vector<GpsTofSeries> none;
  const std::vector<double> zs;
  EXPECT_THROW(multilaterate_joint(none, geo::Rect::square(10.0), zs), ContractViolation);
  const std::vector<GpsTofSeries> empty_only{GpsTofSeries{}};
  const std::vector<double> z1{1.5};
  EXPECT_THROW(multilaterate_joint(empty_only, geo::Rect::square(10.0), z1),
               ContractViolation);
  const std::vector<GpsTofSeries> mismatch{GpsTofSeries(5)};
  EXPECT_THROW(multilaterate_joint(mismatch, geo::Rect::square(10.0), zs), ContractViolation);
}

TEST(JointTest, OutputsPinned) {
  // Bit-exact outputs of the joint solve on the SharedOffsetBreaksDegeneracy
  // inputs and of one fixed-offset fit on the FixedOffsetRobustToOutliers
  // inputs. A refactor of the solver must keep every double unchanged.
  struct Pinned {
    double x, y, offset_m, rms_residual_m;
    int iterations;
  };
  const auto expect_pinned = [](const MultilaterationResult& r, const Pinned& p) {
    EXPECT_EQ(r.position.x, p.x);
    EXPECT_EQ(r.position.y, p.y);
    EXPECT_EQ(r.offset_m, p.offset_m);
    EXPECT_EQ(r.rms_residual_m, p.rms_residual_m);
    EXPECT_EQ(r.iterations, p.iterations);
  };

  const std::vector<geo::Vec3> ues{
      {60.0, 60.0, 1.5}, {240.0, 70.0, 1.5}, {150.0, 260.0, 1.5}, {40.0, 220.0, 1.5}};
  std::vector<GpsTofSeries> tuples;
  std::vector<double> zs;
  for (std::size_t i = 0; i < ues.size(); ++i) {
    tuples.push_back(synthetic_tuples(ues[i], 40.0, 1.5, 10 + i, 80, 30.0));
    zs.push_back(1.5);
  }
  const JointMultilaterationResult joint =
      multilaterate_joint(tuples, geo::Rect::square(300.0), zs);
  EXPECT_EQ(joint.shared_offset_m, 35.0);
  const Pinned per_ue[] = {
      {0x1.078f7eab2adccp+6, 0x1.78f07ad6c35aap+5, 35.0, 0x1.826422a94cb2dp+0, 5},
      {0x1.e8603b46890dep+7, 0x1.0a92860eae681p+6, 35.0, 0x1.450ee6ece2c76p+0, 7},
      {0x1.25537b872c623p+7, 0x1.098c31074923fp+8, 35.0, 0x1.6e748f1f3076ep+0, 8},
      {0x1.0983550747df4p+5, 0x1.b676893b53925p+7, 35.0, 0x1.7331545e72982p+0, 5},
  };
  ASSERT_EQ(joint.per_ue.size(), std::size(per_ue));
  for (std::size_t i = 0; i < joint.per_ue.size(); ++i) {
    SCOPED_TRACE(i);
    expect_pinned(joint.per_ue[i], per_ue[i]);
  }

  const geo::Vec3 ue{100.0, 100.0, 1.5};
  GpsTofSeries outliers = synthetic_tuples(ue, 40.0, 1.0, 3);
  for (std::size_t i = 0; i < outliers.size(); i += 7) outliers[i].range_m += 60.0;
  expect_pinned(
      multilaterate_fixed_offset(outliers, geo::Rect::square(300.0), 1.5, 40.0),
      {0x1.8fe844a4eb49fp+6, 0x1.868f3b0a30619p+6, 40.0, 0x1.6e616fa38e586p+4, 6});
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture() {
    sim::WorldConfig wc;
    wc.terrain_kind = terrain::TerrainKind::kCampus;
    wc.seed = 77;
    world_ = std::make_unique<sim::World>(wc);
    world_->ue_positions() = mobility::deploy_mixed_visibility(world_->terrain(), 4, 78);
  }
  /// collect_gps_tof for one UE.
  GpsTofSeries collect_one(const std::vector<uav::FlightSample>& flight, geo::Vec3 ue,
                           uav::GpsSensor& gps, const RangingConfig& rc, geo::Mt19937_64& rng,
                           RangingFaultModel* faults = nullptr) const {
    return collect_gps_tof(flight, std::span<const geo::Vec3>(&ue, 1), world_->channel(),
                           world_->budget(), std::span<uav::GpsSensor>(&gps, 1), rc, rng, faults)
        .front();
  }
  std::unique_ptr<sim::World> world_;
};

TEST_F(PipelineFixture, TuplesTrackTrueRangePlusOffset) {
  RangingConfig rc;
  const geo::Path track =
      uav::random_walk(world_->area().inflated(-10.0), {150.0, 150.0}, 30.0, 9.0, 5);
  const auto samples = uav::fly(uav::FlightPlan::at_altitude(track, 60.0), 1.0 / kGpsRateHz);
  uav::GpsSensor gps(6);
  geo::Mt19937_64 rng(7);
  const geo::Vec3 ue = world_->ue_positions()[0];
  const GpsTofSeries tuples =
      collect_one(samples, ue, gps, rc, rng);
  ASSERT_GE(tuples.size(), 20u);
  std::vector<double> errors;
  for (const GpsTofTuple& t : tuples)
    errors.push_back(t.range_m - (t.uav_position.dist(ue) + kProcessingOffsetM));
  std::sort(errors.begin(), errors.end());
  const double med = errors[errors.size() / 2];
  EXPECT_LT(std::abs(med), 8.0);  // small bias (LOS ~0, NLOS up to ~6 m)
}

TEST_F(PipelineFixture, LowSnrReportsDropped) {
  RangingConfig rc;
  rc.min_snr_db = 1e9;  // absurd threshold: everything dropped
  const geo::Path track =
      uav::random_walk(world_->area().inflated(-10.0), {150.0, 150.0}, 20.0, 9.0, 5);
  const auto samples = uav::fly(uav::FlightPlan::at_altitude(track, 60.0), 1.0 / kGpsRateHz);
  uav::GpsSensor gps(6);
  geo::Mt19937_64 rng(7);
  const GpsTofSeries tuples = collect_one(samples, world_->ue_positions()[0], gps, rc, rng);
  EXPECT_TRUE(tuples.empty());
}

TEST_F(PipelineFixture, EmptyOrSinglePointFlightYieldsEmptySeries) {
  // Regression: `flight.size() - 1` on a std::size_t underflowed an empty
  // flight to ~2^64 intervals. A UAV that spent the whole epoch at the depot
  // (battery swap) legitimately hands the pipeline a zero-length flight.
  RangingConfig rc;
  uav::GpsSensor gps(6);
  geo::Mt19937_64 rng(7);
  const geo::Vec3 ue = world_->ue_positions()[0];
  const std::vector<uav::FlightSample> empty;
  EXPECT_TRUE(
      collect_one(empty, ue, gps, rc, rng).empty());
  const std::vector<uav::FlightSample> single{{0.0, {150.0, 150.0, 60.0}, 0.0}};
  EXPECT_TRUE(
      collect_one(single, ue, gps, rc, rng).empty());
}

TEST_F(PipelineFixture, FaultedRayTracedTuplesPinned) {
  // The tuples of every UE over the ray-traced campus, bit for bit, under
  // SRS-loss, SNR-sag and GPS-outage windows. NLOS links draw multipath taps
  // from the shared stream, and the ~8.5 s flight spans two 512-symbol batches.
  RangingConfig rc;
  const geo::Path track =
      uav::random_walk(world_->area().inflated(-10.0), {150.0, 150.0}, 70.0, 9.0, 5);
  const auto samples = uav::fly(uav::FlightPlan::at_altitude(track, 60.0), 1.0 / kGpsRateHz);
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.add({sim::FaultKind::kSrsSymbolLoss, 1.0, 4.0, 0.3, 0.0})
      .add({sim::FaultKind::kSrsSnrSag, 2.5, 5.0, 30.0, 0.0})
      .add({sim::FaultKind::kGpsOutage, 5.5, 6.5, 0.0, 0.0});
  sim::FaultInjector faults(plan);
  geo::Mt19937_64 rng(7);
  struct Pinned {
    std::size_t tuples;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {361, 0x1d42320363e88aacu},
      {237, 0xa8a79379b5103c5eu},
      {359, 0x7af20f530f8ee8cbu},
      {356, 0xfaf30b8c82416078u},
  };
  std::size_t nlos_samples = 0;
  for (std::size_t i = 0; i < world_->ue_positions().size(); ++i) {
    SCOPED_TRACE(i);
    const geo::Vec3 ue = world_->ue_positions()[i];
    for (const uav::FlightSample& s : samples)
      nlos_samples += !world_->channel().line_of_sight(s.position, ue);
    uav::GpsSensor gps(6 + i);
    const GpsTofSeries tuples =
        collect_one(samples, ue, gps, rc, rng, &faults);
    geo::Fnv1a h;
    for (const GpsTofTuple& t : tuples) h.pod(t);
    EXPECT_EQ(tuples.size(), pinned[i].tuples);
    EXPECT_EQ(h.value(), pinned[i].digest);
  }
  EXPECT_GT(nlos_samples, 0u);
  EXPECT_EQ(rng(), 0x0f762c16d67469bbu);
}

TEST_F(PipelineFixture, LocalizerEndToEndAccuracy) {
  LocalizerConfig lc;
  const UeLocalizer localizer(world_->channel(), world_->budget(), lc);
  const LocalizationRun run =
      localizer.localize({150.0, 150.0}, world_->ue_positions(), 42);
  EXPECT_GT(run.flight_length_m, lc.flight_length_m - 1.0);
  ASSERT_EQ(run.estimates.size(), world_->ue_positions().size());
  std::vector<double> errs;
  for (std::size_t i = 0; i < run.estimates.size(); ++i) {
    if (!run.estimates[i].valid) continue;
    errs.push_back(run.estimates[i].position.dist(world_->ue_positions()[i].xy()));
  }
  ASSERT_GE(errs.size(), 3u);
  std::sort(errs.begin(), errs.end());
  // Median well under the macro-cell 50-100 m state of the art (Sec 6).
  EXPECT_LT(errs[errs.size() / 2], 25.0);
}

TEST_F(PipelineFixture, LocalizerToleratesGpsOutages) {
  LocalizerConfig lc;
  const UeLocalizer localizer(world_->channel(), world_->budget(), lc);
  const LocalizationRun clean = localizer.localize({150.0, 150.0}, world_->ue_positions(), 77);
  // Frequent short outages: a 0.25 s window (about 12 GPS fixes) every
  // second, so about a quarter of the fixes are lost.
  sim::FaultPlan plan;
  for (double t = 0.5; t < clean.flight_duration_s; t += 1.0)
    plan.add({sim::FaultKind::kGpsOutage, t, t + 0.25, 0.0, 0.0});
  ASSERT_GE(plan.windows.size(), 3u);
  sim::FaultInjector faults(plan);
  const LocalizationRun run =
      localizer.localize({150.0, 150.0}, world_->ue_positions(), 77, &faults);
  bool moved = false;
  for (std::size_t i = 0; i < run.estimates.size(); ++i)
    moved = moved || run.estimates[i].position != clean.estimates[i].position;
  EXPECT_TRUE(moved);  // the windows took tuples away
  std::vector<double> errs;
  for (std::size_t i = 0; i < run.estimates.size(); ++i)
    if (run.estimates[i].valid)
      errs.push_back(run.estimates[i].position.dist(world_->ue_positions()[i].xy()));
  ASSERT_GE(errs.size(), 3u);
  std::sort(errs.begin(), errs.end());
  // Fewer tuples, same ballpark accuracy: outages degrade gracefully.
  EXPECT_LT(errs[errs.size() / 2], 40.0);
}

TEST_F(PipelineFixture, LocalizerDeterministicInSeed) {
  LocalizerConfig lc;
  lc.flight_length_m = 20.0;
  const UeLocalizer localizer(world_->channel(), world_->budget(), lc);
  const LocalizationRun a = localizer.localize({150.0, 150.0}, world_->ue_positions(), 9);
  const LocalizationRun b = localizer.localize({150.0, 150.0}, world_->ue_positions(), 9);
  for (std::size_t i = 0; i < a.estimates.size(); ++i)
    EXPECT_EQ(a.estimates[i].position, b.estimates[i].position);
}

/// Property: localization error decreases (weakly) as tuple noise shrinks.
class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, FixedOffsetErrorScalesWithNoise) {
  const geo::Vec3 ue{90.0, 210.0, 1.5};
  double total = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const GpsTofSeries tuples =
        synthetic_tuples(ue, 40.0, GetParam(), 100 + trial, 100, 40.0);
    const MultilaterationResult fit =
        multilaterate_fixed_offset(tuples, geo::Rect::square(300.0), 1.5, 40.0);
    total += fit.position.dist(ue.xy());
  }
  // Loose linear-ish bound: ~8 m of position error per meter of range noise
  // at this range/aperture ratio, plus a small floor.
  EXPECT_LT(total / 5.0, 3.0 + 9.0 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Noises, NoiseSweep, ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// The pipelined collection against the per-UE sequential loop it replaced.

/// collect_gps_tof for one UE as it read before the UEs' batches were
/// pipelined: per batch, the five passes in turn, every symbol in a full
/// FFT-size buffer, the draws on the calling thread. Called once per UE in
/// order on one `rng` and `faults`, it is the oracle of the pipeline.
GpsTofSeries sequential_collect(const std::vector<uav::FlightSample>& flight,
                                geo::Vec3 ue_position, const rf::RayTraceChannel& channel,
                                const rf::LinkBudget& budget, uav::GpsSensor& gps,
                                const RangingConfig& config, geo::Mt19937_64& rng,
                                RangingFaultModel* faults) {
  if (flight.size() < 2) return {};
  const lte::SrsSymbol tx = lte::make_srs_symbol(config.srs);
  const std::vector<int> res = lte::occupied_subcarriers(config.srs);
  const lte::TofEstimator estimator(config.srs, kUpsampleFactor, 0.0, 0.6, true,
                                    config.min_peak_to_side_db);
  const int srs_per_gps = std::max(1, static_cast<int>(std::round(kSrsRateHz / kGpsRateHz)));
  const std::size_t batch_intervals =
      std::max<std::size_t>(1, 512 / static_cast<std::size_t>(srs_per_gps));
  const std::size_t n_intervals = flight.size() - 1;
  GpsTofSeries out;
  struct Candidate {
    geo::Vec3 uav;
    double time_s = 0.0;
    std::size_t interval = 0;
    double snr_db = 0.0;
    bool decoded = false;
    bool los = false;
  };
  for (std::size_t base = 0; base < n_intervals; base += batch_intervals) {
    const std::size_t last = std::min(n_intervals, base + batch_intervals);
    std::vector<Candidate> candidates;
    for (std::size_t i = base; i < last; ++i) {
      const uav::FlightSample& a = flight[i];
      const uav::FlightSample& b = flight[i + 1];
      for (int m = 0; m < srs_per_gps; ++m) {
        const double frac = static_cast<double>(m) / srs_per_gps;
        const geo::Vec3 uav_true = a.position + (b.position - a.position) * frac;
        const double symbol_time_s = a.time_s + frac * (b.time_s - a.time_s);
        if (faults != nullptr && faults->srs_symbol_lost(symbol_time_s)) continue;
        candidates.push_back({uav_true, symbol_time_s, i - base});
      }
    }
    for (Candidate& c : candidates) {
      const rf::RayTraceChannel::Link link = channel.trace(c.uav, ue_position);
      c.snr_db = budget.snr_db(link.path_loss_db);
      if (faults != nullptr) c.snr_db -= faults->srs_snr_sag_db(c.time_s);
      c.decoded = c.snr_db >= config.min_snr_db;
      c.los = c.decoded && link.line_of_sight;
    }
    std::vector<lte::SrsChannelParams> channels;
    std::vector<lte::SrsSymbol> received;
    std::vector<std::size_t> received_interval;
    lte::CplxVec noise(res.size());
    for (const Candidate& c : candidates) {
      if (!c.decoded) continue;
      lte::SrsChannelParams& ch = channels.emplace_back();
      ch.delay_s = (c.uav.dist(ue_position) + kProcessingOffsetM) / rf::kSpeedOfLight;
      ch.snr_db = c.snr_db;
      if (!c.los) lte::make_nlos_taps(3, 50e-9, -4.0, 4.0, rng, ch.taps);
      lte::draw_srs_noise(ch.snr_db, rng, res, tx.freq.size(), noise);
      received.push_back({tx.config, lte::CplxVec(tx.freq.size())});
      lte::place_occupied(noise, res, received.back().freq);
      received_interval.push_back(c.interval);
    }
    for (std::size_t k = 0; k < received.size(); ++k)
      lte::add_srs_signal(tx, channels[k], res, received[k].freq);
    const std::vector<lte::TofEstimate> estimates = estimator.estimate_batch(received);
    std::vector<double> distance_sums(last - base, 0.0);
    std::vector<int> tof_counts(last - base, 0);
    for (std::size_t s = 0; s < estimates.size(); ++s) {
      if (!estimates[s].quality_ok) continue;
      distance_sums[received_interval[s]] += estimates[s].distance_m;
      ++tof_counts[received_interval[s]];
    }
    for (std::size_t i = base; i < last; ++i) {
      if (tof_counts[i - base] == 0) continue;
      const uav::FlightSample& a = flight[i];
      if (faults != nullptr && faults->gps_forced_outage(a.time_s) && !gps.in_outage())
        gps.force_outage_for(1);
      const uav::GpsFix fix = gps.sample(a.position, a.time_s);
      if (!fix.valid) continue;
      out.push_back({fix.time_s, fix.position, distance_sums[i - base] / tof_counts[i - base]});
    }
  }
  return out;
}

/// Every byte of a series.
std::string series_bytes(const GpsTofSeries& series) {
  std::string out(series.size() * sizeof(GpsTofTuple), '\0');
  if (!series.empty()) std::memcpy(out.data(), series.data(), out.size());
  return out;
}

/// Where a generator stands, as its text state.
std::string engine_state(const geo::Mt19937_64& g) {
  std::ostringstream os;
  os << g;
  return os.str();
}

class CollectPipelineTest : public PipelineFixture {
 protected:
  /// SRS loss (it draws from the injector's RNG), SNR sag and a GPS outage.
  static sim::FaultPlan fault_plan() {
    sim::FaultPlan plan;
    plan.seed = 11;
    plan.add({sim::FaultKind::kSrsSymbolLoss, 0.5, 3.5, 0.4, 0.0})
        .add({sim::FaultKind::kSrsSnrSag, 2.0, 4.5, 25.0, 0.0})
        .add({sim::FaultKind::kGpsOutage, 4.0, 5.5, 0.0, 0.0});
    return plan;
  }
  /// A flight of ~8.5 s: two 512-symbol batches per UE.
  std::vector<uav::FlightSample> long_flight() const {
    const geo::Path track =
        uav::random_walk(world_->area().inflated(-10.0), {150.0, 150.0}, 70.0, 9.0, 12);
    return uav::fly(uav::FlightPlan::at_altitude(track, 60.0), 1.0 / kGpsRateHz);
  }
};

TEST_F(CollectPipelineTest, MatchesPerUeSequentialOracleAtAnyWorkerCount) {
  const RangingConfig rc;
  const std::vector<uav::FlightSample> flight = long_flight();
  ASSERT_GT((flight.size() - 1) * 2, 512u);
  const std::vector<geo::Vec3>& ues = world_->ue_positions();
  ASSERT_GE(ues.size(), 3u);

  sim::FaultInjector want_faults(fault_plan());
  geo::Mt19937_64 want_rng(21);
  std::vector<uav::GpsSensor> want_gps;
  std::vector<GpsTofSeries> want;
  for (std::size_t i = 0; i < ues.size(); ++i) {
    want_gps.emplace_back(30 + i);
    want.push_back(sequential_collect(flight, ues[i], world_->channel(), world_->budget(),
                                      want_gps[i], rc, want_rng, &want_faults));
  }
  std::size_t tuples = 0;
  for (const GpsTofSeries& s : want) tuples += s.size();
  ASSERT_GT(tuples, 1000u);

  for (const int workers : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    const core::ScopedWorkers scoped(workers);
    sim::FaultInjector faults(fault_plan());
    geo::Mt19937_64 rng(21);
    std::vector<uav::GpsSensor> gps;
    for (std::size_t i = 0; i < ues.size(); ++i) gps.emplace_back(30 + i);
    const std::vector<GpsTofSeries> got =
        collect_gps_tof(flight, ues, world_->channel(), world_->budget(), gps, rc, rng, &faults);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(series_bytes(got[i]), series_bytes(want[i])) << "UE " << i;
    EXPECT_EQ(engine_state(rng), engine_state(want_rng));
    // The injector's RNG and the GPS sensors stand where the oracle's do.
    sim::FaultInjector want_next = want_faults;
    for (int draw = 0; draw < 64; ++draw)
      ASSERT_EQ(faults.srs_symbol_lost(1.0), want_next.srs_symbol_lost(1.0)) << "draw " << draw;
    for (std::size_t i = 0; i < gps.size(); ++i) {
      uav::GpsSensor want_sensor = want_gps[i];
      const uav::GpsFix a = gps[i].sample({1.0, 2.0, 3.0}, 99.0);
      const uav::GpsFix b = want_sensor.sample({1.0, 2.0, 3.0}, 99.0);
      EXPECT_EQ(a.position, b.position) << "UE " << i;
      EXPECT_EQ(a.valid, b.valid) << "UE " << i;
    }
  }
}

TEST_F(CollectPipelineTest, DegenerateInputs) {
  const RangingConfig rc;
  const std::vector<uav::FlightSample> flight = long_flight();
  geo::Mt19937_64 rng(3);
  const std::string start = engine_state(rng);
  // No UE: nothing to collect, nothing drawn.
  EXPECT_TRUE(collect_gps_tof(flight, std::span<const geo::Vec3>(), world_->channel(),
                              world_->budget(), std::span<uav::GpsSensor>(), rc, rng)
                  .empty());
  // A flight with no interval: one empty series per UE, nothing drawn.
  std::vector<uav::GpsSensor> gps(3, uav::GpsSensor(1));
  const std::vector<uav::FlightSample> single{flight.front()};
  const std::vector<GpsTofSeries> none = collect_gps_tof(
      single, std::span<const geo::Vec3>(world_->ue_positions()).first(3), world_->channel(),
      world_->budget(), gps, rc, rng);
  ASSERT_EQ(none.size(), 3u);
  for (const GpsTofSeries& s : none) EXPECT_TRUE(s.empty());
  EXPECT_EQ(engine_state(rng), start);
  // One sensor per UE.
  EXPECT_THROW(collect_gps_tof(flight, world_->ue_positions(), world_->channel(),
                               world_->budget(), gps, rc, rng),
               ContractViolation);
}

}  // namespace
}  // namespace skyran::localization

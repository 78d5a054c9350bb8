// Chaos suite for the fault-injection subsystem and the degraded-mode epoch
// pipeline: every fault class injected into a full PHY epoch must (a) never
// crash or trip a contract, (b) complete with a well-formed EpochReport, and
// (c) stay bit-identical between serial and 8-worker execution. Also the
// regression tests for the battery-accounting fixes (localization + altitude
// flights drained before the reserve check) and the GPS outage-length
// geometric-distribution fix (mean_length_samples == 1 was undefined
// behavior). Runs under TSan and ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "core/skyran.hpp"
#include "fleet/fleet.hpp"
#include "geo/contract.hpp"
#include "lte/ranging.hpp"
#include "mobility/deployment.hpp"
#include "rf/channel.hpp"
#include "sim/faults.hpp"
#include "uav/flight.hpp"
#include "uav/gps.hpp"

namespace {

using namespace skyran;
using uav::kDefaultCruiseMps;

constexpr std::uint64_t kSeed = 99;
constexpr double kInf = std::numeric_limits<double>::infinity();

sim::World make_world() {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = 7;
  wc.cell_size_m = 2.0;  // coarser raster keeps the PHY chaos epochs fast
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_uniform(world.terrain(), 5, 8);
  return world;
}

core::SkyRanConfig chaos_config() {
  core::SkyRanConfig cfg;
  cfg.rem_cell_m = 8.0;
  cfg.measurement_budget_m = 400.0;
  cfg.localization_mode = core::LocalizationMode::kPhy;
  cfg.localizer.ranging.min_peak_to_side_db = 3.0;  // quality gate armed
  return cfg;
}

core::EpochReport run_epoch_with(const sim::FaultPlan& plan, int threads, int epochs = 1) {
  sim::World world = make_world();
  core::SkyRanConfig cfg = chaos_config();
  cfg.faults = plan;
  cfg.threads = threads;
  core::SkyRan skyran(world, cfg, kSeed);
  core::EpochReport report;
  for (int i = 0; i < epochs; ++i) report = skyran.run_epoch();
  return report;
}

void expect_well_formed(const core::EpochReport& r) {
  const geo::Rect area = make_world().area();
  EXPECT_GE(r.epoch, 1);
  EXPECT_EQ(r.estimated_ue_positions.size(), 5u);
  for (geo::Vec2 p : r.estimated_ue_positions) {
    EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y));
    EXPECT_TRUE(area.contains(p));
  }
  for (double v : {r.localization_flight_m, r.altitude_flight_m, r.measurement_flight_m,
                   r.total_flight_m, r.flight_time_s, r.altitude_m,
                   r.predicted_objective_snr_db, r.served_mean_throughput_bps}) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GE(r.measurement_flight_m, 0.0);
  EXPECT_GE(r.measurement_rounds, 0);
  EXPECT_EQ(r.traffic.ues, 5u);
  EXPECT_GT(r.traffic.ttis, 0);
  EXPECT_TRUE(std::isfinite(r.traffic.served_bits));
  EXPECT_GE(r.traffic.served_bits, 0.0);
  EXPECT_GE(r.traffic.fairness_jain, 0.0);
  EXPECT_LE(r.traffic.fairness_jain, 1.0 + 1e-12);
  EXPECT_GE(r.altitude_m, 10.0);
  EXPECT_LE(r.altitude_m, 200.0);
  EXPECT_TRUE(area.contains(r.position));
}

void expect_reports_equal(const core::EpochReport& a, const core::EpochReport& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.estimated_ue_positions.size(), b.estimated_ue_positions.size());
  for (std::size_t i = 0; i < a.estimated_ue_positions.size(); ++i)
    EXPECT_EQ(a.estimated_ue_positions[i], b.estimated_ue_positions[i]);
  EXPECT_EQ(a.reused_rem, b.reused_rem);
  EXPECT_EQ(a.localization_flight_m, b.localization_flight_m);
  EXPECT_EQ(a.altitude_flight_m, b.altitude_flight_m);
  EXPECT_EQ(a.measurement_flight_m, b.measurement_flight_m);
  EXPECT_EQ(a.total_flight_m, b.total_flight_m);
  EXPECT_EQ(a.altitude_m, b.altitude_m);
  EXPECT_EQ(a.position, b.position);
  EXPECT_EQ(a.predicted_objective_snr_db, b.predicted_objective_snr_db);
  EXPECT_EQ(a.served_mean_throughput_bps, b.served_mean_throughput_bps);
  EXPECT_EQ(a.flight_time_s, b.flight_time_s);
  EXPECT_EQ(a.planned_k, b.planned_k);
  EXPECT_EQ(a.info_to_cost, b.info_to_cost);
  EXPECT_EQ(a.measurement_rounds, b.measurement_rounds);
  EXPECT_EQ(a.degraded, b.degraded);
  // Service phase: every traffic field is bit-identical too (the plane's
  // serial == N-worker contract, surfaced at the epoch level).
  EXPECT_EQ(a.traffic.ttis, b.traffic.ttis);
  EXPECT_EQ(a.traffic.ues, b.traffic.ues);
  EXPECT_EQ(a.traffic.scheduled_ue_ttis, b.traffic.scheduled_ue_ttis);
  EXPECT_EQ(a.traffic.offered_bits, b.traffic.offered_bits);
  EXPECT_EQ(a.traffic.served_bits, b.traffic.served_bits);
  EXPECT_EQ(a.traffic.dropped_bits, b.traffic.dropped_bits);
  EXPECT_EQ(a.traffic.aggregate_throughput_bps, b.traffic.aggregate_throughput_bps);
  EXPECT_EQ(a.traffic.fairness_jain, b.traffic.fairness_jain);
  EXPECT_EQ(a.traffic.p50_throughput_bps, b.traffic.p50_throughput_bps);
  EXPECT_EQ(a.traffic.p90_throughput_bps, b.traffic.p90_throughput_bps);
  EXPECT_EQ(a.traffic.p99_throughput_bps, b.traffic.p99_throughput_bps);
  EXPECT_EQ(a.traffic.p50_delay_ms, b.traffic.p50_delay_ms);
  EXPECT_EQ(a.traffic.p90_delay_ms, b.traffic.p90_delay_ms);
  EXPECT_EQ(a.traffic.p99_delay_ms, b.traffic.p99_delay_ms);
  EXPECT_EQ(a.traffic.harq_first_tx, b.traffic.harq_first_tx);
  EXPECT_EQ(a.traffic.harq_retx, b.traffic.harq_retx);
  EXPECT_EQ(a.traffic.harq_drops, b.traffic.harq_drops);
  EXPECT_EQ(a.traffic.harq_residual_bler, b.traffic.harq_residual_bler);
  EXPECT_EQ(a.traffic.mbsfn_subframes, b.traffic.mbsfn_subframes);
  EXPECT_EQ(a.traffic.multicast_served_bits, b.traffic.multicast_served_bits);
  EXPECT_EQ(a.traffic.multicast_backlog_bits, b.traffic.multicast_backlog_bits);
}

sim::FaultPlan single_fault(sim::FaultKind kind, double magnitude, double start = 0.0,
                            double end = kInf, double heading = 0.0) {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.add({kind, start, end, magnitude, heading});
  return plan;
}

// ---------------------------------------------------------------- chaos ----

class ChaosMatrix : public ::testing::TestWithParam<sim::FaultPlan> {};

TEST_P(ChaosMatrix, EpochCompletesAndIsWorkerCountInvariant) {
  const core::EpochReport serial = run_epoch_with(GetParam(), /*threads=*/1);
  expect_well_formed(serial);
  const core::EpochReport parallel = run_epoch_with(GetParam(), /*threads=*/8);
  expect_reports_equal(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    FaultClasses, ChaosMatrix,
    ::testing::Values(
        single_fault(sim::FaultKind::kSrsSymbolLoss, 0.5),
        single_fault(sim::FaultKind::kSrsSymbolLoss, 1.0),  // total loss: all UEs fall back
        single_fault(sim::FaultKind::kSrsSnrSag, 45.0),     // below decode floor everywhere
        single_fault(sim::FaultKind::kGpsOutage, 0.0, 0.0, 120.0),  // covers the loc flight
        single_fault(sim::FaultKind::kBatterySag, 0.5),
        single_fault(sim::FaultKind::kWindDrift, 5.0, 0.0, kInf, std::numbers::pi / 4.0),
        single_fault(sim::FaultKind::kBackhaulOutage, 0.0, 10.0, 40.0)),
    [](const ::testing::TestParamInfo<sim::FaultPlan>& info) {
      return "fault_" + std::to_string(info.index);
    });

TEST(ChaosCombined, AllFaultClassesAtOnceOverTwoEpochs) {
  sim::FaultPlan plan;
  plan.seed = 23;
  plan.add({sim::FaultKind::kSrsSymbolLoss, 0.0, kInf, 0.3, 0.0})
      .add({sim::FaultKind::kSrsSnrSag, 0.0, 2.0, 20.0, 0.0})
      .add({sim::FaultKind::kGpsOutage, 1.0, 2.5, 0.0, 0.0})
      .add({sim::FaultKind::kBatterySag, 5.0, kInf, 0.1, 0.0})
      .add({sim::FaultKind::kWindDrift, 0.0, kInf, 2.0, 1.0})
      .add({sim::FaultKind::kBackhaulOutage, 20.0, 45.0, 0.0, 0.0});
  const core::EpochReport serial = run_epoch_with(plan, 1, /*epochs=*/2);
  expect_well_formed(serial);
  EXPECT_EQ(serial.epoch, 2);
  const core::EpochReport parallel = run_epoch_with(plan, 8, /*epochs=*/2);
  expect_reports_equal(serial, parallel);
}

TEST(ChaosCombined, TotalSrsLossFlagsDegradedEpoch) {
  const core::EpochReport r = run_epoch_with(single_fault(sim::FaultKind::kSrsSymbolLoss, 1.0), 1);
  // No UE can be localized: every position fell back, the epoch is degraded
  // but still places the UAV and serves.
  EXPECT_TRUE(r.degraded);
  expect_well_formed(r);
}

TEST(ChaosCombined, EmptyPlanMatchesDefaultConfigBitForBit) {
  const core::EpochReport with_subsystem = run_epoch_with(sim::FaultPlan{}, 1);
  sim::World world = make_world();
  core::SkyRanConfig cfg = chaos_config();
  cfg.threads = 1;
  core::SkyRan skyran(world, cfg, kSeed);
  expect_reports_equal(skyran.run_epoch(), with_subsystem);
}

// ------------------------------------------------------- fault injector ----

TEST(FaultInjector, InactiveWhenPlanEmpty) {
  sim::FaultInjector inj;
  EXPECT_FALSE(inj.active());
  EXPECT_FALSE(inj.srs_symbol_lost(1.0));
  EXPECT_EQ(inj.srs_snr_sag_db(1.0), 0.0);
  EXPECT_FALSE(inj.gps_forced_outage(1.0));
  EXPECT_EQ(inj.battery_sag_fraction(1.0), 0.0);
  EXPECT_EQ(inj.wind_offset_m(1.0), geo::Vec2{});
  EXPECT_FALSE(inj.backhaul_down(1.0));
}

TEST(FaultInjector, WindowsAreHalfOpenAndAdditive) {
  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kSrsSnrSag, 1.0, 2.0, 10.0, 0.0})
      .add({sim::FaultKind::kSrsSnrSag, 1.5, 3.0, 5.0, 0.0});
  const sim::FaultInjector inj(plan);
  EXPECT_EQ(inj.srs_snr_sag_db(0.5), 0.0);
  EXPECT_EQ(inj.srs_snr_sag_db(1.0), 10.0);
  EXPECT_EQ(inj.srs_snr_sag_db(1.75), 15.0);
  EXPECT_EQ(inj.srs_snr_sag_db(2.0), 5.0);  // first window closed at end_s
  EXPECT_EQ(inj.srs_snr_sag_db(3.5), 0.0);
}

TEST(FaultInjector, WindOffsetIntegratesOverWindow) {
  const sim::FaultInjector inj(single_fault(sim::FaultKind::kWindDrift, 2.0, 10.0, 20.0));
  EXPECT_EQ(inj.wind_offset_m(10.0), geo::Vec2{});
  const geo::Vec2 mid = inj.wind_offset_m(15.0);
  EXPECT_NEAR(mid.x, 10.0, 1e-12);  // 2 m/s * 5 s along heading 0
  EXPECT_NEAR(mid.y, 0.0, 1e-12);
  // After the window closes the accumulated displacement persists.
  EXPECT_NEAR(inj.wind_offset_m(100.0).x, 20.0, 1e-12);
}

TEST(FaultInjector, BatterySagAccumulatesAndClamps) {
  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kBatterySag, 0.0, kInf, 0.6, 0.0})
      .add({sim::FaultKind::kBatterySag, 10.0, kInf, 0.7, 0.0});
  const sim::FaultInjector inj(plan);
  EXPECT_NEAR(inj.battery_sag_fraction(0.0), 0.6, 1e-12);
  EXPECT_NEAR(inj.battery_sag_fraction(5.0), 0.6, 1e-12);
  EXPECT_EQ(inj.battery_sag_fraction(10.0), 1.0);  // clamped
}

TEST(FaultInjector, PlanValidationRejectsBadWindows) {
  EXPECT_THROW(sim::FaultInjector(single_fault(sim::FaultKind::kSrsSymbolLoss, 1.5)),
               ContractViolation);
  EXPECT_THROW(sim::FaultInjector(single_fault(sim::FaultKind::kBatterySag, 2.0)),
               ContractViolation);
  EXPECT_THROW(sim::FaultInjector(single_fault(sim::FaultKind::kWindDrift, -1.0)),
               ContractViolation);
  sim::FaultPlan inverted;
  inverted.add({sim::FaultKind::kGpsOutage, 5.0, 1.0, 0.0, 0.0});
  EXPECT_THROW(sim::FaultInjector(std::move(inverted)), ContractViolation);
}

TEST(FaultInjector, SymbolLossIsDeterministicPerSeedAndSalt) {
  const sim::FaultPlan plan = single_fault(sim::FaultKind::kSrsSymbolLoss, 0.5);
  sim::FaultInjector a(plan, 3), b(plan, 3), c(plan, 4);
  int diverged = 0;
  for (int i = 0; i < 256; ++i) {
    const bool la = a.srs_symbol_lost(0.1 * i);
    EXPECT_EQ(la, b.srs_symbol_lost(0.1 * i));
    diverged += la != c.srs_symbol_lost(0.1 * i);
  }
  EXPECT_GT(diverged, 0);  // different epoch salt, different loss stream
}

// --------------------------------------------------- battery accounting ----

TEST(BatteryAccounting, PreLoopDrainStopsMeasurementAtTheReserve) {
  // First pass with the default (generous) battery: learn this seed's
  // deterministic localization + altitude-search flight lengths.
  sim::World probe_world = make_world();
  core::SkyRanConfig cfg = chaos_config();
  cfg.threads = 1;
  core::SkyRan probe(probe_world, cfg, kSeed);
  const core::EpochReport full = probe.run_epoch();
  ASSERT_GT(full.measurement_rounds, 0);
  const double preflight_m = full.localization_flight_m + full.altitude_flight_m;
  ASSERT_GT(preflight_m, 0.0);
  const double power_w = uav::Battery(cfg.battery).power_w(kDefaultCruiseMps);
  const double preflight_wh = power_w * (preflight_m / kDefaultCruiseMps) / 3600.0;

  // Second pass: capacity sized so the pre-loop drain alone crosses the
  // reserve (full charge is above it, charge minus the localization +
  // altitude flights is below it). The regression: these flights used to be
  // drained after the measurement loop — the altitude descent never — so
  // the reserve check saw a full battery and measurement rounds flew anyway.
  cfg.battery.capacity_wh = 2.0 * preflight_wh;
  cfg.battery_reserve_fraction = 0.6;
  sim::World world = make_world();
  core::SkyRan skyran(world, cfg, kSeed);
  const core::EpochReport r = skyran.run_epoch();
  EXPECT_EQ(r.measurement_rounds, 0);
  EXPECT_EQ(r.measurement_flight_m, 0.0);
  EXPECT_TRUE(r.degraded);
  expect_well_formed(r);
}

TEST(BatteryAccounting, AltitudeDescentIsDrained) {
  // With no measurement rounds (reserve above full) the whole epoch drain is
  // exactly the altitude descent plus the reposition hop. The old code never
  // drained the descent, so the balance check below would fail.
  sim::World world = make_world();
  core::SkyRanConfig cfg = chaos_config();
  cfg.localization_mode = core::LocalizationMode::kGaussianError;
  cfg.injected_error_m = 5.0;
  cfg.battery_reserve_fraction = 1.01;
  cfg.threads = 1;
  core::SkyRan skyran(world, cfg, kSeed);
  const core::EpochReport r = skyran.run_epoch();
  ASSERT_EQ(r.localization_flight_m, 0.0);
  ASSERT_GT(r.altitude_flight_m, 0.0);
  ASSERT_EQ(r.measurement_flight_m, 0.0);
  const double reposition_m = r.total_flight_m - r.altitude_flight_m;
  const double power_w = uav::Battery(cfg.battery).power_w(kDefaultCruiseMps);
  const double expected_wh =
      power_w * ((r.altitude_flight_m + reposition_m) / kDefaultCruiseMps) / 3600.0;
  const double drained_wh = cfg.battery.capacity_wh - skyran.battery().remaining_wh();
  EXPECT_NEAR(drained_wh, expected_wh, 1e-9);
}

TEST(BatteryAccounting, MidFlightAbortKeepsPartialDeposits) {
  // Capacity sized so the first tour starts above the reserve but cannot
  // finish: the degraded path truncates it where the energy runs out and
  // keeps whatever the partial tour deposited.
  sim::World probe_world = make_world();
  core::SkyRanConfig cfg = chaos_config();
  cfg.threads = 1;
  core::SkyRan probe(probe_world, cfg, kSeed);
  const core::EpochReport full = probe.run_epoch();
  ASSERT_GT(full.measurement_flight_m, 100.0);
  const double power_w = uav::Battery(cfg.battery).power_w(kDefaultCruiseMps);
  const double preflight_wh = power_w *
      ((full.localization_flight_m + full.altitude_flight_m) / kDefaultCruiseMps) / 3600.0;
  const double half_tour_wh = power_w * (60.0 / kDefaultCruiseMps) / 3600.0;

  cfg.battery.capacity_wh = preflight_wh + half_tour_wh;
  cfg.battery_reserve_fraction = 0.01;
  sim::World world = make_world();
  core::SkyRan skyran(world, cfg, kSeed);
  const core::EpochReport r = skyran.run_epoch();
  EXPECT_EQ(r.measurement_rounds, 1);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.measurement_flight_m, 0.0);
  EXPECT_NEAR(r.measurement_flight_m, 60.0, 1.0);  // flew to the energy limit
  std::size_t measured = 0;
  for (std::size_t i = 0; i < skyran.rem_bank().ue_count(); ++i)
    measured += skyran.rem_bank().measured_cells(i);
  EXPECT_GT(measured, 0u);  // the partial tour's deposits survived
  expect_well_formed(r);
}

// ----------------------------------------------------------------- gps -----

TEST(GpsOutageFix, ForcedOutageRepeatsLastValidFix) {
  uav::GpsSensor gps(7);
  const uav::GpsFix before = gps.sample({1.0, 2.0, 60.0}, 0.0);
  ASSERT_TRUE(before.valid);
  gps.force_outage_for(3);
  for (int i = 1; i <= 3; ++i) {
    const uav::GpsFix fix = gps.sample({1.0, 2.0, 60.0}, 0.02 * i);
    EXPECT_FALSE(fix.valid);
    EXPECT_EQ(fix.position, before.position);  // repeats the last valid fix
  }
  EXPECT_TRUE(gps.sample({1.0, 2.0, 60.0}, 0.1).valid);
  EXPECT_THROW(gps.force_outage_for(-1), ContractViolation);
}

// ------------------------------------------------------- tof quality gate --

TEST(TofQualityGate, DegenerateWindowReturnsFlaggedEstimate) {
  const lte::SrsConfig cfg{};
  // A sub-bin search window used to trip `expects`; now it returns a flagged
  // zero estimate the pipeline drops.
  const lte::TofEstimator est(cfg, 4, 0.1);
  const lte::TofEstimate e = est.estimate(lte::make_srs_symbol(cfg));
  EXPECT_FALSE(e.quality_ok);
  EXPECT_EQ(e.distance_m, 0.0);
}

TEST(TofQualityGate, GateFlagsOnlyBelowThreshold) {
  const lte::SrsConfig cfg{};
  const lte::SrsSymbol rx = lte::make_srs_symbol(cfg);  // perfect correlation
  const lte::TofEstimate open = lte::TofEstimator(cfg, 4).estimate(rx);
  EXPECT_TRUE(open.quality_ok);
  EXPECT_GT(open.peak_to_side_db, 10.0);
  const lte::TofEstimate gated =
      lte::TofEstimator(cfg, 4, 0.0, 0.6, true, open.peak_to_side_db + 10.0).estimate(rx);
  EXPECT_FALSE(gated.quality_ok);
  EXPECT_EQ(gated.distance_m, open.distance_m);  // flagged, not zeroed
  EXPECT_THROW(lte::TofEstimator(cfg, 4, 0.0, 0.6, true, -1.0), ContractViolation);
}

// -------------------------------------------------- per-cell fault scoping --

TEST(CellScopedFaults, ScopedWindowInvisibleToSingleUavPath) {
  sim::FaultPlan plan;
  sim::FaultWindow w;
  w.kind = sim::FaultKind::kSrsSnrSag;
  w.start_s = 1.0;
  w.end_s = 4.0;
  w.magnitude = 30.0;
  w.cell = 1;
  plan.windows.push_back(w);
  const sim::FaultInjector injector(plan, kSeed);
  // Inside the window: only the scoped cell sees the sag; the single-UAV
  // srs path and every other cell see nothing.
  EXPECT_EQ(injector.srs_snr_sag_db(2.0), 0.0);
  EXPECT_EQ(injector.cell_snr_sag_db(2.0, 1), 30.0);
  EXPECT_EQ(injector.cell_snr_sag_db(2.0, 0), 0.0);
  EXPECT_EQ(injector.cell_snr_sag_db(2.0, 2), 0.0);
  // Outside the window: nothing anywhere.
  EXPECT_EQ(injector.cell_snr_sag_db(0.0, 1), 0.0);
  EXPECT_EQ(injector.cell_snr_sag_db(4.0, 1), 0.0);
  // An unscoped window still hits both paths.
  sim::FaultPlan global;
  global.windows.push_back({sim::FaultKind::kSrsSnrSag, 1.0, 4.0, 12.0});
  const sim::FaultInjector gi(global, kSeed);
  EXPECT_EQ(gi.srs_snr_sag_db(2.0), 12.0);
  EXPECT_EQ(gi.cell_snr_sag_db(2.0, 7), 12.0);
}

/// Three-cell fleet with the middle cell sagged 30 dB for epochs 2..4
/// (fleet fault time base: t = epoch - 1). Neighbors must absorb the
/// faulted cell's UEs via A3 while staying unaffected themselves.
fleet::Fleet scoped_fault_fleet(int threads, bool faulted) {
  static const rf::FsplChannel fspl(2.6e9);
  fleet::FleetConfig cfg;
  cfg.seed = kSeed;
  cfg.threads = threads;
  cfg.ttis_per_epoch = 20;
  cfg.steering.enabled = false;
  cfg.a3.time_to_trigger_epochs = 1;
  if (faulted) {
    sim::FaultWindow w;
    w.kind = sim::FaultKind::kSrsSnrSag;
    w.start_s = 1.0;
    w.end_s = 4.0;
    w.magnitude = 30.0;
    w.cell = 1;
    cfg.faults.windows.push_back(w);
  }
  fleet::Fleet f(cfg, fspl);
  f.add_cell({0.0, 0.0, 60.0});
  f.add_cell({400.0, 0.0, 60.0});
  f.add_cell({800.0, 0.0, 60.0});
  lte::TrafficSpec spec;
  spec.model = lte::TrafficModel::kCbr;
  spec.rate_bps = 2e5;
  for (int i = 0; i < 4; ++i) f.add_ue({30.0 + 25.0 * i, 10.0 * i, 1.5}, spec);   // cell 0
  for (int i = 0; i < 6; ++i) f.add_ue({340.0 + 24.0 * i, -20.0 + 8.0 * i, 1.5}, spec);  // cell 1
  for (int i = 0; i < 4; ++i) f.add_ue({730.0 + 25.0 * i, 5.0 * i, 1.5}, spec);   // cell 2
  return f;
}

TEST(CellScopedFaults, NeighborsAbsorbFaultedCellsUes) {
  fleet::Fleet f = scoped_fault_fleet(/*threads=*/1, /*faulted=*/true);
  fleet::Fleet clean = scoped_fault_fleet(/*threads=*/1, /*faulted=*/false);

  // Epoch 1 (t = 0): the window is closed — the scoped plan is a strict
  // no-op and both fleets attach identically.
  fleet::FleetEpochReport r = f.run_epoch();
  clean.run_epoch();
  ASSERT_EQ(r.cell_ues, (std::vector<std::uint32_t>{4, 6, 4}));
  EXPECT_EQ(f.state_hash(), clean.state_hash());

  // Epoch 2 (t = 1): cell 1 sags 30 dB; every one of its UEs sees a
  // neighbor >3 dB better and hands over in one epoch (TTT = 1).
  r = f.run_epoch();
  EXPECT_EQ(r.ho_successes, 6u);
  ASSERT_EQ(r.cell_ues.size(), 3u);
  EXPECT_EQ(r.cell_ues[1], 0u);
  EXPECT_EQ(r.cell_ues[0] + r.cell_ues[2], 14u);
  // The unfaulted fleet saw no handovers at all.
  clean.run_epoch();
  EXPECT_EQ(clean.total_handovers(), 0u);

  // Epochs 3..4: still sagged, membership stays drained and stable.
  r = f.run_epoch();
  EXPECT_EQ(r.cell_ues[1], 0u);
  EXPECT_EQ(r.ho_successes, 0u);

  // Epoch 5 (t = 4): the window closed; cell 1's RSRP recovers by 30 dB
  // and its UEs come home.
  f.run_epoch();
  const fleet::FleetEpochReport back = f.run_epoch();
  EXPECT_EQ(back.cell_ues[1], 6u);
}

TEST(CellScopedFaults, FaultedFleetSerialMatchesEightWorkers) {
  fleet::Fleet serial = scoped_fault_fleet(/*threads=*/1, /*faulted=*/true);
  fleet::Fleet pool = scoped_fault_fleet(/*threads=*/8, /*faulted=*/true);
  for (int e = 1; e <= 6; ++e) {
    const fleet::FleetEpochReport rs = serial.run_epoch();
    const fleet::FleetEpochReport rp = pool.run_epoch();
    ASSERT_EQ(serial.state_hash(), pool.state_hash()) << "epoch " << e;
    EXPECT_EQ(rs.ho_successes, rp.ho_successes);
    EXPECT_EQ(rs.cell_ues, rp.cell_ues);
    EXPECT_EQ(rs.min_sinr_db, rp.min_sinr_db);
    EXPECT_EQ(rs.served_bits, rp.served_bits);
  }
}

// ------------------------------------------------------ flight truncation --

TEST(FlightTruncation, PrefixLengthAndEndpoint) {
  uav::FlightPlan plan;
  plan.waypoints = {{0.0, 0.0, 50.0}, {10.0, 0.0, 50.0}, {10.0, 10.0, 50.0}};
  const uav::FlightPlan mid = uav::truncated(plan, 14.0);
  EXPECT_NEAR(mid.length_m(), 14.0, 1e-12);
  EXPECT_EQ(mid.waypoints.back(), (geo::Vec3{10.0, 4.0, 50.0}));
  const uav::FlightPlan all = uav::truncated(plan, 100.0);
  EXPECT_EQ(all.waypoints.size(), 3u);
  EXPECT_NEAR(all.length_m(), plan.length_m(), 1e-12);
  const uav::FlightPlan none = uav::truncated(plan, 0.0);
  EXPECT_EQ(none.waypoints.size(), 1u);
  EXPECT_THROW(uav::truncated(plan, -1.0), ContractViolation);
}

}  // namespace

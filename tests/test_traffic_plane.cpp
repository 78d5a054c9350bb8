// Verification harness for the per-TTI traffic plane (lte::TrafficPlane):
// conservation ledgers, the serial == 8-worker bit-identity contract over
// 10k TTIs (TSan target), golden replay, pins on the proportional-fair
// candidate selection, the HARQ state machine (combining, max-retx drops,
// process-id round trips, SNR-sag windows from sim::FaultInjector), the
// adaptive MBSFN split, and the traffic models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "lte/amc.hpp"
#include "lte/traffic_plane.hpp"
#include "sim/faults.hpp"

namespace skyran::lte {
namespace {

using core::ScopedWorkers;

/// Pinned end state of the GoldenReplayHash scenario (seed 2026, mixed
/// 64-UE population with MBSFN, 500 TTIs). Regenerate by running the test
/// and copying the reported actual value after any intentional change to
/// the plane's arithmetic.
constexpr std::uint64_t kGoldenStateHash = 8861055878732182726ULL;

/// A heterogeneous 64-UE population exercising every traffic model, both
/// policies' hot paths, HARQ and (optionally) the MBSFN split.
TrafficPlane make_mixed_plane(TrafficPlaneConfig cfg, bool mbsfn = false) {
  if (mbsfn) {
    cfg.adaptive_mbsfn = true;
    cfg.multicast_rate_bps = 2e6;
  }
  TrafficPlane plane(cfg);
  const TrafficModel models[] = {TrafficModel::kFullBuffer, TrafficModel::kCbr,
                                 TrafficModel::kBurstyOnOff, TrafficModel::kVideo};
  for (std::uint32_t i = 0; i < 64; ++i) {
    TrafficSpec spec;
    spec.model = models[i % 4];
    spec.rate_bps = 4e5 + 1e5 * static_cast<double>(i % 5);
    spec.multicast_subscriber = mbsfn && i % 8 == 0;
    plane.add_ue(61 + i, -5.0 + static_cast<double>(i % 36), spec);
  }
  return plane;
}

/// Per-UE conservation ledger for queue-fed models: every offered bit is
/// served, dropped, queued, or in flight inside a HARQ process.
void expect_ledger_holds(const TrafficPlane& plane) {
  for (std::size_t i = 0; i < plane.ue_count(); ++i) {
    const double offered = plane.offered_bits(i);
    if (offered == 0.0) continue;  // full-buffer UEs: no arrivals tracked
    const double accounted = plane.served_bits(i) + plane.dropped_bits(i) +
                             plane.backlog_bits(i) + plane.in_flight_bits(i);
    EXPECT_NEAR(accounted, offered, 1e-6 * std::max(1.0, offered)) << "UE " << i;
  }
}

/// Sag every UE's true channel by the same offset.
void set_all_offsets(TrafficPlane& plane, double offset_db) {
  for (std::size_t i = 0; i < plane.ue_count(); ++i) plane.set_snr_offset_db(i, offset_db);
}

// ------------------------------------------------------------- ledgers ----

TEST(TrafficPlaneLedger, ConservationAcrossModelsAndPolicies) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kRoundRobin, SchedulerPolicy::kProportionalFair}) {
    TrafficPlaneConfig cfg;
    cfg.policy = policy;
    cfg.seed = 31;
    TrafficPlane plane = make_mixed_plane(cfg);
    plane.run_ttis(2000);
    expect_ledger_holds(plane);
    const TrafficPlaneReport r = plane.report();
    EXPECT_GT(r.served_bits, 0.0);
    EXPECT_EQ(r.ttis, 2000);
    EXPECT_EQ(r.ues, 64u);
  }
}

TEST(TrafficPlaneLedger, LedgerHoldsUnderHeavyHarqLoss) {
  TrafficPlaneConfig cfg;
  cfg.seed = 33;
  TrafficPlane plane = make_mixed_plane(cfg);
  set_all_offsets(plane, -12.0);  // deep in the retransmission regime
  plane.run_ttis(2000);
  expect_ledger_holds(plane);
  EXPECT_GT(plane.report().harq_retx, 0u);
}

TEST(TrafficPlaneLedger, FullBufferCapacityMatchesAmc) {
  TrafficPlaneConfig cfg;
  cfg.seed = 35;
  cfg.target_bler = 0.0;  // no HARQ losses: pure capacity
  TrafficPlane plane(cfg);
  plane.add_ue(61, 30.0, {TrafficModel::kFullBuffer});
  plane.run_ttis(100);
  // One saturated UE owns all 50 PRBs; its rate must equal the AMC-layer
  // full-bandwidth throughput at the same SNR (~37.5 Mbit/s at CQI 15).
  const double expected = throughput_bps(30.0, cfg.carrier);
  EXPECT_NEAR(plane.report().aggregate_throughput_bps, expected, 1e-9 * expected);
}

// --------------------------------------------------------- determinism ----

TEST(TrafficPlaneDeterminism, SerialEqualsEightWorkersOver10kTtis) {
  TrafficPlaneConfig cfg;
  cfg.seed = 41;
  std::uint64_t serial_hash = 0;
  {
    const ScopedWorkers workers(1);
    TrafficPlane plane = make_mixed_plane(cfg, /*mbsfn=*/true);
    plane.run_ttis(10000);
    serial_hash = plane.state_hash();
  }
  std::uint64_t parallel_hash = 0;
  {
    const ScopedWorkers workers(8);
    TrafficPlane plane = make_mixed_plane(cfg, /*mbsfn=*/true);
    plane.run_ttis(10000);
    parallel_hash = plane.state_hash();
  }
  EXPECT_EQ(serial_hash, parallel_hash);
}

TEST(TrafficPlaneDeterminism, SameSeedReplaysIdentically) {
  TrafficPlaneConfig cfg;
  cfg.seed = 43;
  TrafficPlane a = make_mixed_plane(cfg);
  TrafficPlane b = make_mixed_plane(cfg);
  a.run_ttis(777);
  b.run_ttis(777);
  EXPECT_EQ(a.state_hash(), b.state_hash());
  cfg.seed = 44;
  TrafficPlane c = make_mixed_plane(cfg);
  c.run_ttis(777);
  EXPECT_NE(a.state_hash(), c.state_hash());
}

TEST(TrafficPlaneDeterminism, RunIsChunkingInvariant) {
  // 1x1000 TTIs == 10x100 TTIs == 1000x1: run_ttis windows are not a
  // statefulness boundary.
  TrafficPlaneConfig cfg;
  cfg.seed = 45;
  TrafficPlane a = make_mixed_plane(cfg);
  TrafficPlane b = make_mixed_plane(cfg);
  TrafficPlane c = make_mixed_plane(cfg);
  a.run_ttis(1000);
  for (int i = 0; i < 10; ++i) b.run_ttis(100);
  for (int i = 0; i < 1000; ++i) c.run_ttis(1);
  EXPECT_EQ(a.state_hash(), b.state_hash());
  EXPECT_EQ(a.state_hash(), c.state_hash());
}

// The golden hash pins the exact end-to-end arithmetic (arrival draws, PF
// ordering, HARQ bookkeeping, MBSFN pattern). target_bler stays at its
// default: the BLER draw path is part of what the replay protects.
TEST(TrafficPlaneDeterminism, GoldenReplayHash) {
  TrafficPlaneConfig cfg;
  cfg.seed = 2026;
  TrafficPlane plane = make_mixed_plane(cfg, /*mbsfn=*/true);
  plane.run_ttis(500);
  EXPECT_EQ(plane.state_hash(), kGoldenStateHash);
}

// ------------------------------------------------------- PF selection ----
//
// Pins on the proportional-fair candidate selection: the top-K set under
// (metric descending, UE index ascending), retransmissions first, and the
// grant count per regime. Each pin is the end state_hash plus an FNV digest
// of every TTI's per-UE grants, so a change that picks a different set in
// any one TTI moves it. Regenerate only for an intended scheduling change.

struct SelectionPin {
  std::uint64_t state = 0;
  std::uint64_t grants = 0;
};

SelectionPin run_pinned(TrafficPlane& plane, int ttis) {
  geo::Fnv1a grants;
  for (int k = 0; k < ttis; ++k) {
    plane.run_ttis(1);
    const std::vector<std::uint16_t>& prbs = plane.last_tti_prbs();
    grants.bytes(prbs.data(), prbs.size() * sizeof(prbs[0]));
  }
  return {plane.state_hash(), grants.value()};
}

/// 500 UEs in the campaign's model mix (55% CBR, 25% bursty, 20% video)
/// over SNRs from out of range to the top CQI: the plane Fleet::phase_serve
/// builds for one cell epoch.
TrafficPlane make_cell_epoch_plane(TrafficPlaneConfig cfg) {
  TrafficPlane plane(cfg);
  for (std::uint32_t i = 0; i < 500; ++i) {
    TrafficSpec spec;
    const std::uint32_t m = i % 20;
    spec.model = m < 11 ? TrafficModel::kCbr
                 : m < 16 ? TrafficModel::kBurstyOnOff
                          : TrafficModel::kVideo;
    spec.rate_bps = 2e5 + 4e3 * static_cast<double>((i * 37) % 100);
    plane.add_ue(1 + i, -8.0 + 0.07 * static_cast<double>((i * 53) % 500), spec);
  }
  return plane;
}

TEST(TrafficPlanePfPins, CellEpochMix) {
  TrafficPlaneConfig cfg;
  cfg.seed = 0x5eed01;
  TrafficPlane plane = make_cell_epoch_plane(cfg);
  const SelectionPin pin = run_pinned(plane, 40);
  EXPECT_EQ(pin.state, 1760694912155578137ULL);
  EXPECT_EQ(pin.grants, 4144544439327966333ULL);
}

// A high first-transmission BLER keeps HARQ processes busy, so pending
// retransmissions take PRBs first and the new-TX budget drops below n_prb.
TEST(TrafficPlanePfPins, RetransmissionsShrinkTheBudget) {
  TrafficPlaneConfig cfg;
  cfg.seed = 0x5eed02;
  cfg.target_bler = 0.8;
  TrafficPlane plane = make_cell_epoch_plane(cfg);
  const SelectionPin pin = run_pinned(plane, 40);
  EXPECT_GT(plane.report().harq_retx, 0U);
  EXPECT_EQ(pin.state, 1399918158056570418ULL);
  EXPECT_EQ(pin.grants, 13098500592710174861ULL);
}

// One SNR, one model: every PF metric ties wherever two UEs share a serving
// history, so the UE index alone decides who is granted.
TEST(TrafficPlanePfPins, TiedMetricsBreakOnUeIndex) {
  TrafficPlaneConfig cfg;
  cfg.seed = 0x5eed03;
  TrafficPlane plane(cfg);
  TrafficSpec spec;
  spec.model = TrafficModel::kFullBuffer;
  for (std::uint32_t i = 0; i < 200; ++i) plane.add_ue(1 + i, 12.0, spec);
  plane.run_ttis(1);
  // First TTI: every metric ties, so UEs 0..n_prb-1 get one PRB each.
  const std::vector<std::uint16_t>& prbs = plane.last_tti_prbs();
  for (std::size_t i = 0; i < prbs.size(); ++i)
    EXPECT_EQ(prbs[i], i < static_cast<std::size_t>(cfg.carrier.n_prb) ? 1 : 0) << "UE " << i;
  const SelectionPin pin = run_pinned(plane, 39);
  EXPECT_EQ(pin.state, 14768817490277589106ULL);
  EXPECT_EQ(pin.grants, 4393100650073446237ULL);
}

// 6 250 low-rate CBR UEs over 2 TTIs: one cell of perfbench's fleet_radio
// (10^5 UEs over 16 cells), where nearly every UE is eligible.
TEST(TrafficPlanePfPins, FleetRadioCell) {
  TrafficPlaneConfig cfg;
  cfg.seed = 0x5eed04;
  TrafficPlane plane(cfg);
  TrafficSpec spec;
  spec.model = TrafficModel::kCbr;
  for (std::uint32_t i = 0; i < 6250; ++i) {
    spec.rate_bps = 5e3 + 150.0 * static_cast<double>((i * 29) % 100);
    plane.add_ue(1 + i, -9.0 + 0.005 * static_cast<double>((i * 7919) % 6250), spec);
  }
  const SelectionPin pin = run_pinned(plane, 2);
  EXPECT_EQ(pin.state, 12256753637125175155ULL);
  EXPECT_EQ(pin.grants, 820592351095793813ULL);
}

// Fewer eligible UEs than PRBs: proportional shares, leftovers to the
// highest metrics in order.
TEST(TrafficPlanePfPins, FewUesShareTheCarrier) {
  TrafficPlaneConfig cfg;
  cfg.seed = 0x5eed05;
  TrafficPlane plane(cfg);
  TrafficSpec spec;
  spec.model = TrafficModel::kFullBuffer;
  for (std::uint32_t i = 0; i < 12; ++i)
    plane.add_ue(1 + i, 2.0 + 1.5 * static_cast<double>(i), spec);
  const SelectionPin pin = run_pinned(plane, 40);
  EXPECT_EQ(pin.state, 9457101836801031587ULL);
  EXPECT_EQ(pin.grants, 2669760372942086137ULL);
}

// ---------------------------------------------------------------- HARQ ----

/// SNR offset that pins the first-transmission decode margin to exactly
/// `margin_db` for a UE whose reported SNR is `snr_db`.
double offset_for_margin(double snr_db, double margin_db) {
  const int cqi = snr_to_cqi(snr_db);
  const double threshold = cqi_table()[cqi - 1].snr_threshold_db;
  return threshold - snr_db + margin_db;
}

TEST(TrafficPlaneHarq, FirstTxFailureActivatesProcess) {
  TrafficPlaneConfig cfg;
  cfg.seed = 51;
  TrafficPlane plane(cfg);
  plane.add_ue(61, 20.0, {TrafficModel::kFullBuffer});
  plane.set_snr_offset_db(0, -60.0);  // every transmission fails
  plane.run_ttis(1);
  EXPECT_TRUE(plane.harq_active(0, 0));
  EXPECT_EQ(plane.harq_retx_count(0, 0), 0);
  EXPECT_GT(plane.in_flight_bits(0), 0.0);
  EXPECT_EQ(plane.served_bits(0), 0.0);
}

TEST(TrafficPlaneHarq, ProcessIdRoundTripsAcrossTtis) {
  TrafficPlaneConfig cfg;
  cfg.seed = 53;
  TrafficPlane plane(cfg);
  plane.add_ue(61, 20.0, {TrafficModel::kFullBuffer});
  plane.set_snr_offset_db(0, -60.0);
  // TTIs 0..7 open all 8 processes (synchronous HARQ: process = tti % 8).
  plane.run_ttis(8);
  for (int p = 0; p < 8; ++p) {
    EXPECT_TRUE(plane.harq_active(0, p)) << "process " << p;
    EXPECT_EQ(plane.harq_retx_count(0, p), 0) << "process " << p;
  }
  // TTI 8 is process 0's turn again: exactly one retransmission flies.
  plane.run_ttis(1);
  EXPECT_EQ(plane.harq_retx_count(0, 0), 1);
  for (int p = 1; p < 8; ++p) EXPECT_EQ(plane.harq_retx_count(0, p), 0);
}

TEST(TrafficPlaneHarq, CombiningGainTurnsFailureIntoSuccess) {
  TrafficPlaneConfig cfg;
  cfg.seed = 55;
  cfg.harq_combining_gain_db = 50.0;  // one retransmission decodes for sure
  TrafficPlane plane(cfg);
  plane.add_ue(61, 20.0, {TrafficModel::kFullBuffer});
  // Margin -5 dB: p_fail = min(1, 0.1 * 2^5) = 1, the first copy always
  // fails. The retransmission sees -5 + 50 dB and always decodes.
  plane.set_snr_offset_db(0, offset_for_margin(20.0, -5.0));
  plane.run_ttis(8);
  const double in_flight = plane.in_flight_bits(0);
  EXPECT_GT(in_flight, 0.0);
  EXPECT_EQ(plane.served_bits(0), 0.0);
  plane.run_ttis(1);  // process 0 retransmits and succeeds
  EXPECT_FALSE(plane.harq_active(0, 0));
  EXPECT_GT(plane.served_bits(0), 0.0);
  const TrafficPlaneReport r = plane.report();
  EXPECT_EQ(r.harq_retx, 1u);
  EXPECT_EQ(r.harq_drops, 0u);
}

TEST(TrafficPlaneHarq, MaxRetxDropAccounting) {
  TrafficPlaneConfig cfg;
  cfg.seed = 57;
  cfg.harq_max_retx = 4;
  TrafficPlane plane(cfg);
  plane.add_ue(61, 20.0, {TrafficModel::kFullBuffer});
  plane.set_snr_offset_db(0, -60.0);  // combining never rescues anything
  // Process 0: first TX at t=0, retx at t=8,16,24,32 — dropped at the 4th
  // retransmission. By t=40 every process has dropped exactly one block.
  plane.run_ttis(33);
  TrafficPlaneReport r = plane.report();
  EXPECT_EQ(r.harq_drops, 1u);
  EXPECT_GT(plane.dropped_bits(0), 0.0);
  plane.run_ttis(7);
  r = plane.report();
  EXPECT_EQ(r.harq_drops, 8u);
  EXPECT_EQ(r.harq_residual_bler, static_cast<double>(r.harq_drops) /
                                      static_cast<double>(r.harq_first_tx));
  EXPECT_EQ(plane.served_bits(0), 0.0);
}

TEST(TrafficPlaneHarq, RetxAtCqiZeroFailsAndCountsTowardMaxRetx) {
  TrafficPlaneConfig cfg;
  cfg.seed = 61;
  cfg.harq_max_retx = 2;
  cfg.harq_combining_gain_db = 200.0;  // any copy at CQI >= 1 decodes
  TrafficPlane plane(cfg);
  plane.add_ue(61, 20.0, {TrafficModel::kFullBuffer});
  plane.set_snr_offset_db(0, offset_for_margin(20.0, -5.0));  // first copy fails
  plane.run_ttis(1);
  ASSERT_TRUE(plane.harq_active(0, 0));
  // The UE falls out of range: no new transmission is eligible, but process
  // 0 still owes its retransmissions, which now have no CQI threshold.
  plane.set_snr(0, -30.0);
  plane.run_ttis(8);  // t = 8: first retransmission fails
  EXPECT_TRUE(plane.harq_active(0, 0));
  EXPECT_EQ(plane.harq_retx_count(0, 0), 1);
  EXPECT_EQ(plane.served_bits(0), 0.0);
  plane.run_ttis(8);  // t = 16: second retransmission fails and drops
  EXPECT_FALSE(plane.harq_active(0, 0));
  const TrafficPlaneReport r = plane.report();
  EXPECT_EQ(r.harq_first_tx, 1u);
  EXPECT_EQ(r.harq_retx, 2u);
  EXPECT_EQ(r.harq_drops, 1u);
  EXPECT_GT(plane.dropped_bits(0), 0.0);
  EXPECT_EQ(plane.served_bits(0), 0.0);
}

TEST(TrafficPlaneHarq, RetxDeferredWhenPrbsExhausted) {
  // 60 backlogged UEs on 50 PRBs with everything failing: pending
  // retransmissions outnumber the carrier, so some defer to the process's
  // next turn without burning a retx attempt — none may be silently lost.
  TrafficPlaneConfig cfg;
  cfg.seed = 59;
  TrafficPlane plane(cfg);
  for (std::uint32_t i = 0; i < 60; ++i)
    plane.add_ue(61 + i, 20.0, {TrafficModel::kCbr, 5e6});
  set_all_offsets(plane, -60.0);
  plane.run_ttis(200);
  expect_ledger_holds(plane);
  const TrafficPlaneReport r = plane.report();
  EXPECT_GT(r.harq_retx, 0u);
  EXPECT_EQ(r.served_bits, 0.0);
}

TEST(TrafficPlaneHarq, FaultInjectorSnrSagWindowDrivesRetx) {
  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kSrsSnrSag, 0.0, 100.0, 40.0, 0.0});
  const sim::FaultInjector injector(plan);
  ASSERT_TRUE(injector.active());

  TrafficPlaneConfig cfg;
  cfg.seed = 61;
  cfg.target_bler = 1e-4;  // clean channel: effectively loss-free

  TrafficPlane clean(cfg);
  clean.add_ue(61, 30.0, {TrafficModel::kFullBuffer});
  clean.run_ttis(200);
  EXPECT_EQ(clean.report().harq_retx, 0u);
  EXPECT_EQ(clean.report().harq_drops, 0u);

  TrafficPlane sagged(cfg);
  sagged.add_ue(61, 30.0, {TrafficModel::kFullBuffer});
  // Inside the window the true channel sits 40 dB below the CQI reports.
  sagged.set_snr_offset_db(0, -injector.srs_snr_sag_db(50.0));
  sagged.run_ttis(200);
  EXPECT_GT(sagged.report().harq_retx, 0u);
  EXPECT_GT(sagged.report().harq_drops, 0u);
  EXPECT_LT(sagged.report().served_bits, clean.report().served_bits);

  // Outside the window the injector passes through: identical to clean.
  TrafficPlane after(cfg);
  after.add_ue(61, 30.0, {TrafficModel::kFullBuffer});
  after.set_snr_offset_db(0, -injector.srs_snr_sag_db(150.0));
  after.run_ttis(200);
  EXPECT_EQ(after.state_hash(), clean.state_hash());
}

TEST(TrafficPlaneHarq, PerUeOffsetSagsOnlyThatUe) {
  // Two UEs on the same reported channel; only UE 1's true channel sags.
  TrafficPlaneConfig cfg;
  cfg.seed = 63;
  cfg.target_bler = 1e-4;  // clean channel: effectively loss-free
  TrafficPlane plane(cfg);
  plane.add_ue(61, 20.0, {TrafficModel::kFullBuffer});
  plane.add_ue(62, 20.0, {TrafficModel::kFullBuffer});
  plane.set_snr_offset_db(1, -60.0);
  for (int t = 0; t < 200; ++t) {
    plane.run_ttis(1);
    for (int p = 0; p < kHarqProcesses; ++p)
      EXPECT_FALSE(plane.harq_active(0, p)) << "tti " << t << " process " << p;
  }
  EXPECT_GT(plane.served_bits(0), 0.0);
  EXPECT_EQ(plane.dropped_bits(0), 0.0);
  EXPECT_EQ(plane.served_bits(1), 0.0);
  EXPECT_GT(plane.dropped_bits(1), 0.0);
  EXPECT_GT(plane.report().harq_retx, 0u);
}

// --------------------------------------------------------------- MBSFN ----

TrafficPlane make_mbsfn_plane(double multicast_rate_bps, int subscribers,
                              std::uint64_t seed = 71) {
  TrafficPlaneConfig cfg;
  cfg.seed = seed;
  cfg.adaptive_mbsfn = true;
  cfg.multicast_rate_bps = multicast_rate_bps;
  TrafficPlane plane(cfg);
  for (int i = 0; i < 8; ++i) {
    TrafficSpec spec;
    spec.model = TrafficModel::kCbr;
    spec.rate_bps = 1e6;
    spec.multicast_subscriber = i < subscribers;
    plane.add_ue(static_cast<std::uint32_t>(61 + i), 10.0, spec);
  }
  return plane;
}

TEST(TrafficPlaneMbsfn, SplitGrowsWithBroadcastLoad) {
  TrafficPlane light = make_mbsfn_plane(1e6, 4);
  TrafficPlane heavy = make_mbsfn_plane(6e6, 4);
  light.run_ttis(500);
  heavy.run_ttis(500);
  EXPECT_GT(light.report().mbsfn_subframes, 0);
  EXPECT_GT(heavy.report().mbsfn_subframes, light.report().mbsfn_subframes);
}

TEST(TrafficPlaneMbsfn, CappedAtSixSubframesPerFrame) {
  TrafficPlane plane = make_mbsfn_plane(5e7, 4);  // far beyond capacity
  plane.run_ttis(500);
  const TrafficPlaneReport r = plane.report();
  EXPECT_EQ(r.mbsfn_subframes, 6 * 50);  // every frame maxed out
  // Unicast still owns the 4 protected subframes per frame.
  EXPECT_GT(r.scheduled_ue_ttis, 0u);
  EXPECT_GT(r.served_bits, 0.0);
}

TEST(TrafficPlaneMbsfn, DrainsWhenCapacityExceedsLoad) {
  TrafficPlane plane = make_mbsfn_plane(1e6, 4);
  plane.run_ttis(1000);
  const TrafficPlaneReport r = plane.report();
  // Offered broadcast ~ rate * time; nearly all of it must have been served,
  // with at most ~one frame of arrivals still queued.
  const double offered = 1e6 * 1.0;
  EXPECT_NEAR(r.multicast_served_bits + r.multicast_backlog_bits, offered,
              1e-6 * offered);
  EXPECT_LT(r.multicast_backlog_bits, 1e6 * 0.02);
}

TEST(TrafficPlaneMbsfn, NoSubscribersMeansNoMulticastSubframes) {
  TrafficPlane plane = make_mbsfn_plane(5e6, 0);
  plane.run_ttis(300);
  const TrafficPlaneReport r = plane.report();
  EXPECT_EQ(r.mbsfn_subframes, 0);
  EXPECT_EQ(r.multicast_served_bits, 0.0);
  EXPECT_GT(r.multicast_backlog_bits, 0.0);  // load accrues, nothing can carry it
}

TEST(TrafficPlaneMbsfn, CapacityFollowsWorstSubscriber) {
  // Same load, but one subscriber at cell edge: the broadcast MCS drops to
  // what the worst subscriber decodes, so more subframes are needed.
  TrafficPlane good = make_mbsfn_plane(2e6, 4);
  TrafficPlaneConfig cfg;
  cfg.seed = 71;
  cfg.adaptive_mbsfn = true;
  cfg.multicast_rate_bps = 2e6;
  TrafficPlane edge(cfg);
  for (int i = 0; i < 8; ++i) {
    TrafficSpec spec;
    spec.model = TrafficModel::kCbr;
    spec.rate_bps = 1e6;
    spec.multicast_subscriber = i < 4;
    edge.add_ue(static_cast<std::uint32_t>(61 + i), i == 0 ? -4.0 : 10.0, spec);
  }
  good.run_ttis(500);
  edge.run_ttis(500);
  EXPECT_GT(edge.report().mbsfn_subframes, good.report().mbsfn_subframes);
}

// ------------------------------------------------------- traffic models ----

TEST(TrafficPlaneModels, CbrArrivalsAreExact) {
  TrafficPlaneConfig cfg;
  cfg.seed = 81;
  TrafficPlane plane(cfg);
  plane.add_ue(61, 15.0, {TrafficModel::kCbr, 3e6});
  plane.run_ttis(400);
  EXPECT_DOUBLE_EQ(plane.offered_bits(0), 3e6 * 1e-3 * 400);
}

TEST(TrafficPlaneModels, BurstyDutyCycleMatchesConfig) {
  TrafficPlaneConfig cfg;
  cfg.seed = 83;
  TrafficPlane plane(cfg);
  TrafficSpec spec;
  spec.model = TrafficModel::kBurstyOnOff;
  spec.rate_bps = 4e6;
  spec.mean_on_ttis = 100.0;
  spec.mean_off_ttis = 300.0;
  for (std::uint32_t i = 0; i < 32; ++i) plane.add_ue(61 + i, 15.0, spec);
  plane.run_ttis(20000);
  // Duty cycle 25%: long-run offered rate ~ 1 Mbit/s per UE (population
  // average tightens the bound).
  double offered = 0.0;
  for (std::size_t i = 0; i < plane.ue_count(); ++i) offered += plane.offered_bits(i);
  const double mean_rate = offered / 32.0 / 20.0;  // bits / UE / s
  EXPECT_NEAR(mean_rate, 1e6, 0.15e6);
}

TEST(TrafficPlaneModels, VideoFramesArrivePeriodically) {
  TrafficPlaneConfig cfg;
  cfg.seed = 85;
  TrafficPlane plane(cfg);
  TrafficSpec spec;
  spec.model = TrafficModel::kVideo;
  spec.rate_bps = 2e6;
  spec.frame_interval_ttis = 33;
  plane.add_ue(61, 15.0, spec);  // UE 0: frame phase 0
  double last_offered = 0.0;
  int arrival_ttis = 0;
  for (int t = 0; t < 132; ++t) {
    plane.run_ttis(1);
    if (plane.offered_bits(0) > last_offered) ++arrival_ttis;
    last_offered = plane.offered_bits(0);
  }
  EXPECT_EQ(arrival_ttis, 4);  // t = 0, 33, 66, 99
}

TEST(TrafficPlaneModels, VideoLongRunRateMatchesMean) {
  TrafficPlaneConfig cfg;
  cfg.seed = 87;
  TrafficPlane plane(cfg);
  TrafficSpec spec;
  spec.model = TrafficModel::kVideo;
  spec.rate_bps = 2e6;
  for (std::uint32_t i = 0; i < 16; ++i) plane.add_ue(61 + i, 15.0, spec);
  plane.run_ttis(10000);
  double offered = 0.0;
  for (std::size_t i = 0; i < plane.ue_count(); ++i) offered += plane.offered_bits(i);
  const double mean_rate = offered / 16.0 / 10.0;
  EXPECT_NEAR(mean_rate, 2e6, 0.2e6);
}

// -------------------------------------------------------------- reports ----

TEST(TrafficPlaneReportTest, PercentilesOrderedAndJainBounded) {
  TrafficPlaneConfig cfg;
  cfg.seed = 91;
  TrafficPlane plane = make_mixed_plane(cfg);
  plane.run_ttis(1000);
  const TrafficPlaneReport r = plane.report();
  EXPECT_LE(r.p50_throughput_bps, r.p90_throughput_bps);
  EXPECT_LE(r.p90_throughput_bps, r.p99_throughput_bps);
  EXPECT_LE(r.p50_delay_ms, r.p90_delay_ms);
  EXPECT_LE(r.p90_delay_ms, r.p99_delay_ms);
  EXPECT_GT(r.fairness_jain, 0.0);
  EXPECT_LE(r.fairness_jain, 1.0 + 1e-12);
  EXPECT_GT(r.aggregate_throughput_bps, 0.0);
}

TEST(TrafficPlaneReportTest, EmptyPlaneIsWellFormed) {
  TrafficPlane plane(TrafficPlaneConfig{});
  plane.run_ttis(50);
  const TrafficPlaneReport r = plane.report();
  EXPECT_EQ(r.ues, 0u);
  EXPECT_EQ(r.ttis, 50);
  EXPECT_EQ(r.served_bits, 0.0);
  EXPECT_EQ(r.scheduled_ue_ttis, 0u);
  EXPECT_DOUBLE_EQ(r.fairness_jain, 1.0);
}

TEST(TrafficPlaneReportTest, ContractsRejectBadInputs) {
  TrafficPlane plane(TrafficPlaneConfig{});
  EXPECT_THROW(plane.add_ue(61, std::nan(""), {}), ContractViolation);
  TrafficSpec spec;
  spec.rate_bps = -1.0;
  EXPECT_THROW(plane.add_ue(61, 10.0, spec), ContractViolation);
  EXPECT_THROW(plane.set_snr(5, 10.0), ContractViolation);
  EXPECT_THROW(plane.set_snr_offset_db(5, -3.0), ContractViolation);
  EXPECT_THROW(plane.run_ttis(-1), ContractViolation);
}

}  // namespace
}  // namespace skyran::lte

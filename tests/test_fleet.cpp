// fleet::Fleet property suite: attachment determinism and the serial ==
// N-worker bit-identity contract (also at skewed per-cell load); one pool
// fork per parallel phase, however many TTIs the cells' planes run; traffic
// specs rejected where they are stored; the A3 handover state machine (offset +
// hysteresis entry condition, time-to-trigger accumulation and reset,
// ping-pong detection window); closed-loop traffic steering draining a
// constructed hot spot; the save/restore round-trip (bit-identical resume,
// a pinned state_hash, population mismatch, every single-byte flip, version
// 1, and short or miscounted payloads rejected with the fleet unchanged);
// and staggered load-weighted placement over a shared RemBank. The
// kill-at-epoch.steer case SIGKILLs example_multi_uav_fleet
// (tests/kill_resume.cmake).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "geo/binio.hpp"
#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "kernels/kernels.hpp"
#include "lte/traffic_plane.hpp"
#include "obs/obs.hpp"
#include "rem/bank.hpp"
#include "reseal.hpp"
#include "rf/channel.hpp"
#include "terrain/terrain.hpp"

namespace {

using namespace skyran;

constexpr double kAlt = 60.0;

const rf::FsplChannel& channel() {
  static const rf::FsplChannel fspl(2.6e9);
  return fspl;
}

lte::TrafficSpec cbr(double rate_bps) {
  lte::TrafficSpec spec;
  spec.model = lte::TrafficModel::kCbr;
  spec.rate_bps = rate_bps;
  return spec;
}

fleet::FleetConfig tiny_config(int threads = 1) {
  fleet::FleetConfig cfg;
  cfg.seed = 0xF1EE7;
  cfg.threads = threads;
  cfg.ttis_per_epoch = 20;
  cfg.steering.enabled = false;  // handover tests want static CIOs
  return cfg;
}

/// Two co-channel cells 400 m apart at 60 m. With FSPL the RSRP delta at a
/// ground UE is 20*log10(d_serving/d_neighbor): x = 260 gives 4.87 dB in
/// cell 1's favor (beats the 3 dB offset+hysteresis), x = 220 gives 1.62 dB
/// (does not).
fleet::Fleet two_cell_fleet(const fleet::FleetConfig& cfg) {
  fleet::Fleet f(cfg, channel());
  f.add_cell({0.0, 0.0, kAlt});
  f.add_cell({400.0, 0.0, kAlt});
  return f;
}

/// Deterministic pseudo-position stream for bulk populations (the tests'
/// stand-in for a mobility driver; splitmix64-style).
double unit_noise(std::uint64_t i, std::uint64_t salt) {
  std::uint64_t x = i * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) / 9007199254740992.0;  // [0, 1)
}

/// 3x3 cell grid over a 600 m square with `n_ues` pseudo-random UEs.
fleet::Fleet grid_fleet(const fleet::FleetConfig& cfg, std::size_t n_ues) {
  fleet::Fleet f(cfg, channel());
  for (int iy = 0; iy < 3; ++iy)
    for (int ix = 0; ix < 3; ++ix)
      f.add_cell({100.0 + 200.0 * ix, 100.0 + 200.0 * iy, kAlt});
  for (std::size_t i = 0; i < n_ues; ++i)
    f.add_ue({600.0 * unit_noise(i, 11), 600.0 * unit_noise(i, 23), 1.5}, cbr(2e5));
  return f;
}

/// Deterministic per-epoch mobility: every 7th UE drifts.
void drift_ues(fleet::Fleet& f, int epoch) {
  for (std::size_t i = 0; i < f.ue_count(); i += 7) {
    geo::Vec3 p = f.ue_position(i);
    p.x = std::fmod(p.x + 40.0 * unit_noise(i, 100 + epoch) + 600.0, 600.0);
    p.y = std::fmod(p.y + 40.0 * unit_noise(i, 200 + epoch) + 600.0, 600.0);
    f.set_ue_position(i, p);
  }
}

// ---------------------------------------------------------------------------
// Attachment + determinism
// ---------------------------------------------------------------------------

TEST(FleetAttachment, FirstEpochAttachesEveryUeToStrongestCell) {
  fleet::Fleet f = two_cell_fleet(tiny_config());
  f.add_ue({50.0, 0.0, 1.5}, cbr(1e5));    // clearly cell 0
  f.add_ue({350.0, 10.0, 1.5}, cbr(1e5));  // clearly cell 1
  f.add_ue({260.0, 0.0, 1.5}, cbr(1e5));   // nearer cell 1
  f.add_ue({140.0, -5.0, 1.5}, cbr(1e5));  // nearer cell 0

  EXPECT_EQ(f.serving_cell(0), -1);  // unattached until the first epoch
  const fleet::FleetEpochReport r = f.run_epoch();

  EXPECT_EQ(r.attach_events, 4u);
  EXPECT_EQ(f.total_attaches(), 4u);
  EXPECT_EQ(f.serving_cell(0), 0);
  EXPECT_EQ(f.serving_cell(1), 1);
  EXPECT_EQ(f.serving_cell(2), 1);
  EXPECT_EQ(f.serving_cell(3), 0);
  ASSERT_EQ(r.cell_ues.size(), 2u);
  EXPECT_EQ(r.cell_ues[0] + r.cell_ues[1], 4u);
  EXPECT_EQ(r.ho_successes, 0u);  // attachment is not a handover
  for (std::size_t u = 0; u < f.ue_count(); ++u) {
    EXPECT_TRUE(std::isfinite(f.sinr_db(u)));
  }
  EXPECT_GT(r.served_bits, 0.0);
}

TEST(FleetAttachment, RepeatedRunsAreBitIdentical) {
  std::vector<std::uint64_t> first;
  for (int rep = 0; rep < 2; ++rep) {
    fleet::Fleet f = grid_fleet(tiny_config(), 200);
    std::vector<std::uint64_t> hashes;
    for (int e = 1; e <= 3; ++e) {
      f.run_epoch();
      drift_ues(f, e);
      hashes.push_back(f.state_hash());
    }
    if (rep == 0) {
      first = hashes;
    } else {
      EXPECT_EQ(first, hashes);
    }
  }
}

TEST(FleetDeterminism, SerialMatchesEightWorkersBitIdentical) {
  fleet::FleetConfig serial_cfg = tiny_config(/*threads=*/1);
  fleet::FleetConfig pool_cfg = tiny_config(/*threads=*/8);
  serial_cfg.steering.enabled = pool_cfg.steering.enabled = true;
  fleet::Fleet serial = grid_fleet(serial_cfg, 500);
  fleet::Fleet pool = grid_fleet(pool_cfg, 500);

  for (int e = 1; e <= 4; ++e) {
    const fleet::FleetEpochReport rs = serial.run_epoch();
    const fleet::FleetEpochReport rp = pool.run_epoch();
    ASSERT_EQ(serial.state_hash(), pool.state_hash()) << "epoch " << e;
    EXPECT_EQ(rs.attach_events, rp.attach_events);
    EXPECT_EQ(rs.ho_attempts, rp.ho_attempts);
    EXPECT_EQ(rs.ho_successes, rp.ho_successes);
    EXPECT_EQ(rs.ho_pingpongs, rp.ho_pingpongs);
    EXPECT_EQ(rs.steering_steps, rp.steering_steps);
    EXPECT_EQ(rs.min_sinr_db, rp.min_sinr_db);        // bit-equal, not approx
    EXPECT_EQ(rs.mean_sinr_db, rp.mean_sinr_db);
    EXPECT_EQ(rs.served_bits, rp.served_bits);
    EXPECT_EQ(rs.cell_prb_util, rp.cell_prb_util);
    EXPECT_EQ(rs.cell_ues, rp.cell_ues);
    drift_ues(serial, e);
    drift_ues(pool, e);
  }
}

/// Four cells with skewed load: most UEs crowd cell 0, a few spread over
/// cells 1 and 2, and cell 3 hovers too far away to win any UE. Traffic
/// mixes CBR, bursty and video so every plane path runs.
fleet::Fleet skewed_fleet(const fleet::FleetConfig& cfg, std::size_t n_ues) {
  fleet::Fleet f(cfg, channel());
  f.add_cell({100.0, 100.0, kAlt});
  f.add_cell({500.0, 100.0, kAlt});
  f.add_cell({100.0, 500.0, kAlt});
  f.add_cell({5000.0, 5000.0, kAlt});
  for (std::size_t i = 0; i < n_ues; ++i) {
    const bool crowd = i % 8 != 0;
    const double span = crowd ? 120.0 : 600.0;
    const double origin = crowd ? 40.0 : 0.0;
    lte::TrafficSpec spec = cbr(1e5 + 1e4 * static_cast<double>(i % 5));
    if (i % 3 == 1) spec.model = lte::TrafficModel::kBurstyOnOff;
    if (i % 7 == 2) spec.model = lte::TrafficModel::kVideo;
    f.add_ue({origin + span * unit_noise(i, 31), origin + span * unit_noise(i, 37), 1.5},
             spec);
  }
  return f;
}

TEST(FleetDeterminism, SkewedLoadBitIdenticalAcrossWorkerCounts) {
  struct Run {
    std::vector<fleet::FleetEpochReport> reports;
    std::vector<std::vector<double>> ue_served;
    std::vector<std::uint64_t> hashes;
  };
  const auto run_with = [](int threads) {
    fleet::FleetConfig cfg = tiny_config(threads);
    cfg.steering.enabled = true;
    fleet::Fleet f = skewed_fleet(cfg, 400);
    Run run;
    for (int e = 1; e <= 4; ++e) {
      run.reports.push_back(f.run_epoch());
      std::vector<double> served(f.ue_count());
      for (std::size_t u = 0; u < f.ue_count(); ++u) served[u] = f.ue_served_bits(u);
      run.ue_served.push_back(served);
      run.hashes.push_back(f.state_hash());
      drift_ues(f, e);
    }
    return run;
  };

  const Run serial = run_with(1);
  // The fixture really is skewed: one cell holds most UEs, one holds none.
  for (const fleet::FleetEpochReport& r : serial.reports) {
    ASSERT_EQ(r.cell_ues.size(), 4u);
    EXPECT_GT(r.cell_ues[0], 400u / 2);
    EXPECT_EQ(r.cell_ues[3], 0u);
  }
  for (const int threads : {2, 3, 8}) {
    const Run pool = run_with(threads);
    for (std::size_t e = 0; e < serial.reports.size(); ++e) {
      const fleet::FleetEpochReport& rs = serial.reports[e];
      const fleet::FleetEpochReport& rp = pool.reports[e];
      EXPECT_EQ(rs.offered_bits, rp.offered_bits) << threads << " workers, epoch " << e;
      EXPECT_EQ(rs.served_bits, rp.served_bits) << threads << " workers, epoch " << e;
      EXPECT_EQ(rs.cell_prb_util, rp.cell_prb_util) << threads << " workers, epoch " << e;
      EXPECT_EQ(rs.cell_ues, rp.cell_ues) << threads << " workers, epoch " << e;
      EXPECT_EQ(serial.ue_served[e], pool.ue_served[e]) << threads << " workers, epoch " << e;
      EXPECT_EQ(serial.hashes[e], pool.hashes[e]) << threads << " workers, epoch " << e;
    }
  }
}

/// core.pool.runs_parallel added by one epoch of a 16-cell fleet.
std::uint64_t parallel_runs_per_epoch(int ttis_per_epoch) {
  fleet::FleetConfig cfg = tiny_config(/*threads=*/4);
  cfg.ttis_per_epoch = ttis_per_epoch;
  fleet::Fleet f(cfg, channel());
  for (int iy = 0; iy < 4; ++iy)
    for (int ix = 0; ix < 4; ++ix)
      f.add_cell({75.0 + 150.0 * ix, 75.0 + 150.0 * iy, kAlt});
  for (std::size_t i = 0; i < 800; ++i)
    f.add_ue({600.0 * unit_noise(i, 11), 600.0 * unit_noise(i, 23), 1.5}, cbr(2e5));
  const obs::Counter& runs = obs::MetricsRegistry::instance().counter("core.pool.runs_parallel");
  obs::set_enabled(true);
  const std::uint64_t before = runs.value();
  const fleet::FleetEpochReport r = f.run_epoch();
  const std::uint64_t delta = runs.value() - before;
  obs::set_enabled(false);
  EXPECT_EQ(r.cell_ues.size(), 16u);
  return delta;
}

TEST(FleetServe, PoolForksPerEpochIndependentOfTtis) {
#ifdef SKYRAN_OBS_DISABLED
  GTEST_SKIP() << "obs macros compiled out (-DSKYRAN_OBS_DISABLED)";
#endif
  // measure, decide, sinr and serve each fork once; the planes' per-TTI
  // loops run inline on their cell's lane instead of forking 2 x cells x
  // TTIs more times.
  const std::uint64_t short_epoch = parallel_runs_per_epoch(2);
  const std::uint64_t long_epoch = parallel_runs_per_epoch(40);
  EXPECT_GT(short_epoch, 0u);
  EXPECT_LE(short_epoch, 4u);
  EXPECT_EQ(short_epoch, long_epoch);
}

// The serve phase sums each cell's members in plane order from 0.0. A
// test-local TrafficPlane, rebuilt from the cell's plane seed (mixed as the
// fleet mixes it), members and SINRs, must report the same totals, bit for
// bit.
TEST(FleetServe, CellTotalsMatchPlaneReport) {
  fleet::FleetConfig cfg = tiny_config(/*threads=*/4);
  fleet::Fleet f = grid_fleet(cfg, 240);
  std::vector<lte::TrafficSpec> spec(f.ue_count());
  for (std::size_t i = 0; i < spec.size(); ++i) {
    spec[i] = cbr(1e5 + 4e5 * unit_noise(i, 31));
    if (i % 3 == 1) spec[i].model = lte::TrafficModel::kBurstyOnOff;
    if (i % 5 == 2) spec[i].model = lte::TrafficModel::kVideo;
    f.set_ue_traffic(i, spec[i]);
  }
  for (int e = 1; e <= 3; ++e) {
    drift_ues(f, e);
    const fleet::FleetEpochReport er = f.run_epoch();
    double offered = 0.0;
    double served = 0.0;
    std::size_t busy_cells = 0;
    for (std::size_t c = 0; c < f.cell_count(); ++c) {
      lte::TrafficPlaneConfig plane_cfg = cfg.plane;
      plane_cfg.seed = geo::mix64(cfg.seed ^ geo::mix64(static_cast<std::uint64_t>(e) ^
                                                        geo::mix64(0x5eedULL + c)));
      lte::TrafficPlane plane(plane_cfg);
      double member_served = 0.0;
      for (std::size_t i = 0; i < f.ue_count(); ++i) {
        if (f.serving_cell(i) != static_cast<std::int32_t>(c)) continue;
        plane.add_ue(static_cast<std::uint32_t>(i + 1), f.sinr_db(i), spec[i]);
        member_served += f.ue_served_bits(i);
      }
      if (plane.ue_count() == 0) continue;  // the fleet leaves empty cells idle
      ++busy_cells;
      plane.run_ttis(cfg.ttis_per_epoch);
      const lte::TrafficPlaneReport rep = plane.report();
      EXPECT_EQ(member_served, rep.served_bits) << "epoch " << e << " cell " << c;
      offered += rep.offered_bits;
      served += rep.served_bits;
    }
    EXPECT_GT(busy_cells, 1u);
    EXPECT_GT(served, 0.0);
    EXPECT_EQ(er.offered_bits, offered) << "epoch " << e;
    EXPECT_EQ(er.served_bits, served) << "epoch " << e;
  }
}

// ---------------------------------------------------------------------------
// Traffic specs are checked where they are stored
// ---------------------------------------------------------------------------

TEST(FleetTrafficSpec, InvalidSpecRejectedAtSetterWithoutChangingState) {
  const auto bad_specs = [] {
    std::vector<lte::TrafficSpec> specs(6, cbr(1e5));
    specs[0].mean_on_ttis = 0.5;
    specs[1].mean_off_ttis = 0.0;
    specs[2].rate_bps = -1.0;
    specs[3].rate_bps = std::nan("");
    specs[4].frame_interval_ttis = 0;
    specs[5].gop_frames = 0;
    return specs;
  }();
  const auto make = [] {
    fleet::Fleet f = two_cell_fleet(tiny_config());
    f.add_ue({50.0, 0.0, 1.5}, cbr(1e5));
    f.add_ue({350.0, 0.0, 1.5}, cbr(1e5));
    return f;
  };

  fleet::Fleet f = make();
  f.run_epoch();
  const std::uint64_t hash = f.state_hash();
  for (std::size_t k = 0; k < bad_specs.size(); ++k) {
    EXPECT_THROW(f.add_ue({100.0, 0.0, 1.5}, bad_specs[k]), ContractViolation) << "spec " << k;
    EXPECT_THROW(f.set_ue_traffic(0, bad_specs[k]), ContractViolation) << "spec " << k;
    EXPECT_EQ(f.ue_count(), 2u) << "spec " << k;
    EXPECT_EQ(f.state_hash(), hash) << "spec " << k;
  }
  lte::TrafficSpec inf_rate = cbr(1e5);
  inf_rate.rate_bps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(lte::validate(inf_rate), ContractViolation);

  // The rejected specs left nothing behind: the next epoch matches a twin
  // that never saw them.
  fleet::Fleet twin = make();
  twin.run_epoch();
  const fleet::FleetEpochReport r = f.run_epoch();
  const fleet::FleetEpochReport rt = twin.run_epoch();
  EXPECT_EQ(f.state_hash(), twin.state_hash());
  EXPECT_EQ(r.served_bits, rt.served_bits);
}

// ---------------------------------------------------------------------------
// A3 handover state machine
// ---------------------------------------------------------------------------

TEST(FleetHandover, A3RequiresOffsetPlusHysteresis) {
  fleet::FleetConfig cfg = tiny_config();
  cfg.a3.offset_db = 2.0;
  cfg.a3.hysteresis_db = 1.0;
  cfg.a3.time_to_trigger_epochs = 2;
  fleet::Fleet f = two_cell_fleet(cfg);
  const std::size_t ue = f.add_ue({100.0, 0.0, 1.5}, cbr(1e5));

  f.run_epoch();  // epoch 1: attach to cell 0
  ASSERT_EQ(f.serving_cell(ue), 0);

  // 1.62 dB in cell 1's favor: below offset + hysteresis, never triggers.
  f.set_ue_position(ue, {220.0, 0.0, 1.5});
  for (int e = 0; e < 4; ++e) {
    const fleet::FleetEpochReport r = f.run_epoch();
    EXPECT_EQ(r.ho_attempts, 0u);
    EXPECT_EQ(f.serving_cell(ue), 0);
  }

  // 4.87 dB: above the 3 dB bar. TTT = 2 means one attempt epoch, then the
  // execute epoch.
  f.set_ue_position(ue, {260.0, 0.0, 1.5});
  const fleet::FleetEpochReport attempt = f.run_epoch();
  EXPECT_EQ(attempt.ho_attempts, 1u);
  EXPECT_EQ(attempt.ho_successes, 0u);
  EXPECT_EQ(f.serving_cell(ue), 0);  // still in TTT

  const fleet::FleetEpochReport execute = f.run_epoch();
  EXPECT_EQ(execute.ho_attempts, 1u);
  EXPECT_EQ(execute.ho_successes, 1u);
  EXPECT_EQ(f.serving_cell(ue), 1);

  ASSERT_EQ(f.handover_log().size(), 1u);
  const fleet::HandoverEvent& ev = f.handover_log()[0];
  EXPECT_EQ(ev.ue, ue);
  EXPECT_EQ(ev.from, 0);
  EXPECT_EQ(ev.to, 1);
  EXPECT_FALSE(ev.pingpong);
  EXPECT_EQ(f.handover_log_dropped(), 0u);
}

TEST(FleetHandover, TimeToTriggerResetsWhenConditionBreaks) {
  fleet::FleetConfig cfg = tiny_config();
  cfg.a3.time_to_trigger_epochs = 3;
  fleet::Fleet f = two_cell_fleet(cfg);
  const std::size_t ue = f.add_ue({100.0, 0.0, 1.5}, cbr(1e5));
  f.run_epoch();  // attach to cell 0

  f.set_ue_position(ue, {260.0, 0.0, 1.5});
  f.run_epoch();  // TTT count 1
  f.run_epoch();  // TTT count 2
  EXPECT_EQ(f.serving_cell(ue), 0);

  f.set_ue_position(ue, {220.0, 0.0, 1.5});
  f.run_epoch();  // condition breaks: count resets
  EXPECT_EQ(f.serving_cell(ue), 0);

  f.set_ue_position(ue, {260.0, 0.0, 1.5});
  f.run_epoch();  // count 1 again
  f.run_epoch();  // count 2
  EXPECT_EQ(f.serving_cell(ue), 0) << "TTT must restart from zero after a break";
  f.run_epoch();  // count 3: execute
  EXPECT_EQ(f.serving_cell(ue), 1);
  EXPECT_EQ(f.total_handovers(), 1u);
}

TEST(FleetHandover, StaticUesNeverHandOver) {
  // Attachment picks the strongest cell; with static RSRP and zero CIO no
  // neighbor can later become offset-better, so a static population
  // generates zero A3 attempts after epoch 1.
  fleet::Fleet f = grid_fleet(tiny_config(), 120);
  for (int e = 1; e <= 6; ++e) f.run_epoch();
  EXPECT_EQ(f.total_attaches(), 120u);
  EXPECT_EQ(f.total_ho_attempts(), 0u);
  EXPECT_EQ(f.total_handovers(), 0u);
  EXPECT_EQ(f.total_pingpongs(), 0u);
}

TEST(FleetHandover, PingPongDetectedOnlyInsideWindow) {
  fleet::FleetConfig cfg = tiny_config();
  cfg.a3.time_to_trigger_epochs = 1;  // execute the epoch the condition holds
  cfg.a3.pingpong_window_epochs = 4;
  fleet::Fleet f = two_cell_fleet(cfg);
  const std::size_t ue = f.add_ue({140.0, 0.0, 1.5}, cbr(1e5));
  f.run_epoch();  // epoch 1: attach cell 0

  f.set_ue_position(ue, {260.0, 0.0, 1.5});
  f.run_epoch();  // epoch 2: HO 0 -> 1
  ASSERT_EQ(f.serving_cell(ue), 1);

  f.set_ue_position(ue, {140.0, 0.0, 1.5});
  f.run_epoch();  // epoch 3: HO 1 -> 0, one epoch after the last — ping-pong
  ASSERT_EQ(f.serving_cell(ue), 0);
  EXPECT_EQ(f.total_pingpongs(), 1u);
  ASSERT_EQ(f.handover_log().size(), 2u);
  EXPECT_TRUE(f.handover_log()[1].pingpong);

  for (int e = 4; e <= 8; ++e) f.run_epoch();  // sit out the window
  f.set_ue_position(ue, {260.0, 0.0, 1.5});
  f.run_epoch();  // epoch 9: HO 0 -> 1, five epochs after the last — clean
  ASSERT_EQ(f.serving_cell(ue), 1);
  EXPECT_EQ(f.total_handovers(), 3u);
  EXPECT_EQ(f.total_pingpongs(), 1u);
  ASSERT_EQ(f.handover_log().size(), 3u);
  EXPECT_FALSE(f.handover_log()[2].pingpong);
}

// ---------------------------------------------------------------------------
// Closed-loop traffic steering
// ---------------------------------------------------------------------------

/// Hot-spot scenario: 24 CBR UEs clustered inside cell 0's coverage while
/// cell 1 idles with 4 light UEs. Without steering cell 0 saturates; with
/// it, 0.25 dB CIO steps walk the A3 boundary toward the hot spot until
/// boundary UEs drain to cell 1 and the utilization gap closes.
fleet::Fleet hotspot_fleet(bool steering_on) {
  fleet::FleetConfig cfg = tiny_config();
  cfg.ttis_per_epoch = 40;
  cfg.steering.enabled = steering_on;
  cfg.steering.period_epochs = 1;
  cfg.steering.step_db = 0.25;
  cfg.steering.max_cio_db = 6.0;
  cfg.a3.time_to_trigger_epochs = 1;
  fleet::Fleet f(cfg, channel());
  f.add_cell({0.0, 0.0, kAlt});
  f.add_cell({300.0, 0.0, kAlt});
  for (int i = 0; i < 24; ++i) {
    f.add_ue({60.0 + 3.3 * i, -40.0 + 3.5 * i, 1.5}, cbr(3e5));
  }
  for (int i = 0; i < 4; ++i) {
    f.add_ue({280.0 + 5.0 * i, 10.0 * i, 1.5}, cbr(1e5));
  }
  return f;
}

TEST(FleetSteering, ReducesHotspotMaxUtilization) {
  fleet::Fleet off = hotspot_fleet(false);
  fleet::Fleet on = hotspot_fleet(true);
  fleet::FleetEpochReport r_off;
  fleet::FleetEpochReport r_on;
  for (int e = 1; e <= 20; ++e) {
    r_off = off.run_epoch();
    r_on = on.run_epoch();
  }

  EXPECT_EQ(off.total_handovers(), 0u);  // static UEs, no CIO motion
  EXPECT_GT(on.total_handovers(), 0u) << "steering must move boundary UEs";
  EXPECT_GT(on.total_steering_steps(), 0u);
  EXPECT_LT(r_on.max_prb_util, r_off.max_prb_util - 0.05)
      << "steering must relieve the hot cell";
  // Documented ping-pong bound (docs/FLEET.md, "Steering control law"):
  // a bounce needs the net CIO bias to reverse by 2*(offset + hysteresis)
  // = 6 dB inside the ping-pong window, but 0.25 dB steps can only swing
  // 2 * 0.25 * 4 = 2 dB in 4 epochs — ping-pongs are structurally impossible.
  EXPECT_EQ(on.total_pingpongs(), 0u);
  // The drained UEs really moved: cell 1 gained members.
  ASSERT_EQ(r_on.cell_ues.size(), 2u);
  EXPECT_GT(r_on.cell_ues[1], r_off.cell_ues[1]);
}

TEST(FleetSteering, DeadbandFreezesBalancedFleet) {
  fleet::FleetConfig cfg = tiny_config();
  cfg.steering.enabled = true;
  cfg.steering.period_epochs = 1;
  cfg.steering.util_deadband = 1.0;  // any spread is inside the deadband
  fleet::Fleet f = two_cell_fleet(cfg);
  f.add_ue({50.0, 0.0, 1.5}, cbr(1e6));
  f.add_ue({350.0, 0.0, 1.5}, cbr(1e6));
  for (int e = 1; e <= 4; ++e) f.run_epoch();
  EXPECT_EQ(f.total_steering_steps(), 0u);
  EXPECT_EQ(f.cio_db(0), 0.0);
  EXPECT_EQ(f.cio_db(1), 0.0);
}

// ---------------------------------------------------------------------------
// Save / restore
// ---------------------------------------------------------------------------

TEST(FleetSnapshot, RoundTripResumesBitIdentically) {
  fleet::Fleet a = hotspot_fleet(true);
  for (int e = 1; e <= 3; ++e) a.run_epoch();

  std::stringstream stream;
  a.save(stream);

  fleet::Fleet b = hotspot_fleet(true);
  b.restore(stream);
  ASSERT_EQ(a.state_hash(), b.state_hash());
  EXPECT_EQ(b.epochs_run(), 3);
  EXPECT_EQ(a.total_handovers(), b.total_handovers());

  for (int e = 4; e <= 6; ++e) {
    const fleet::FleetEpochReport ra = a.run_epoch();
    const fleet::FleetEpochReport rb = b.run_epoch();
    ASSERT_EQ(a.state_hash(), b.state_hash()) << "epoch " << e;
    EXPECT_EQ(ra.served_bits, rb.served_bits);
    EXPECT_EQ(ra.cell_prb_util, rb.cell_prb_util);
    EXPECT_EQ(ra.ho_successes, rb.ho_successes);
  }
}

// save() sizes its payload with a counting walk first; the bytes must be
// those of a plain BinWriter filled by write_state() and sealed as "SKYF" v2.
TEST(FleetSnapshot, SaveMatchesUnsizedWriter) {
  fleet::Fleet f = hotspot_fleet(true);
  for (int e = 1; e <= 3; ++e) f.run_epoch();
  std::ostringstream saved;
  f.save(saved);
  geo::BinWriter w;
  f.write_state(w);
  std::ostringstream expected;
  geo::write_envelope(expected, "SKYF", 2, w);
  EXPECT_EQ(saved.str(), expected.str());
}

// Pinned state_hash of a small fixed fleet: a change to the hashed byte
// stream, or to fleet behaviour, moves it. Path loss is a tolerance kernel,
// so the pin runs on the scalar path.
TEST(FleetSnapshot, StateHashPinned) {
  const kernels::ScopedScalarKernels scalar;
  fleet::FleetConfig cfg = tiny_config();
  cfg.steering.enabled = true;
  fleet::Fleet f = grid_fleet(cfg, 60);
  for (int e = 1; e <= 3; ++e) {
    f.run_epoch();
    drift_ues(f, e);
  }
  EXPECT_EQ(f.state_hash(), 0x977c5aeeef644936ULL);
}

TEST(FleetSnapshot, RestoreRejectsWrongPopulation) {
  fleet::Fleet a = two_cell_fleet(tiny_config());
  a.add_ue({50.0, 0.0, 1.5}, cbr(1e5));
  a.add_ue({350.0, 0.0, 1.5}, cbr(1e5));
  a.run_epoch();
  std::stringstream stream;
  a.save(stream);

  fleet::Fleet b = two_cell_fleet(tiny_config());
  b.add_ue({50.0, 0.0, 1.5}, cbr(1e5));  // one UE short
  EXPECT_THROW(b.restore(stream), geo::StateMismatchError);
}

TEST(FleetSnapshot, RestoreRejectsCorruptStream) {
  const auto make = [] {
    fleet::Fleet f = two_cell_fleet(tiny_config());
    f.add_ue({50.0, 0.0, 1.5}, cbr(1e5));
    f.add_ue({300.0, 20.0, 1.5}, cbr(2e5));
    return f;
  };
  fleet::Fleet a = make();
  a.run_epoch();
  a.run_epoch();
  std::stringstream stream;
  a.save(stream);
  const std::string bytes = stream.str();

  fleet::Fleet b = make();
  const std::uint64_t before = b.state_hash();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    std::istringstream in(bad);
    EXPECT_THROW(b.restore(in), geo::BinFormatError) << "flip at " << pos;
    ASSERT_EQ(b.state_hash(), before) << "flip at " << pos;
  }
  // A version-1 stream is refused as a version.
  std::istringstream v1(testbinio::with_version(bytes, 1));
  EXPECT_THROW(b.restore(v1), geo::BinVersionError);
  EXPECT_EQ(b.state_hash(), before);
}

// A CRC-valid payload that is short or miscounted is refused before any
// member changes: the SoA layout is fixed by the populations.
TEST(FleetSnapshot, RestoreRejectsMalformedPayloadAndStaysUnchanged) {
  fleet::Fleet a = grid_fleet(tiny_config(), 30);
  for (int e = 1; e <= 3; ++e) a.run_epoch();
  std::stringstream stream;
  a.save(stream);
  const std::string bytes = stream.str();

  fleet::Fleet b = grid_fleet(tiny_config(), 30);
  const std::uint64_t before = b.state_hash();
  const auto expect_rejected = [&](const std::string& bad, const char* what) {
    std::istringstream in(bad);
    EXPECT_THROW(b.restore(in), geo::BinFormatError) << what;
    EXPECT_EQ(b.state_hash(), before) << what;
    EXPECT_EQ(b.epochs_run(), 0) << what;
  };
  expect_rejected(testbinio::reseal(bytes, [](std::string& p) { p.resize(p.size() - 8); }),
                  "cut 8 bytes");
  expect_rejected(testbinio::reseal(bytes, [](std::string& p) { p.resize(p.size() / 2); }),
                  "cut half");
  expect_rejected(testbinio::reseal(bytes, [](std::string& p) { p.append(8, '\0'); }),
                  "8 bytes appended");
  // The last slab's count (per-UE load, doubles) sits before its elements
  // and the 64-byte counter block that ends the payload.
  const std::size_t payload = bytes.size() - 20;
  const std::size_t last_count = payload - 64 - 8 * b.ue_count() - 8;
  expect_rejected(testbinio::patched(bytes, last_count, std::uint64_t{b.ue_count() - 1}),
                  "wrong count");
}

// ---------------------------------------------------------------------------
// Staggered placement refresh over a shared RemBank
// ---------------------------------------------------------------------------

TEST(FleetPlacement, RefreshStaggersAcrossCellsAndScoresUnderLoad) {
  const geo::Rect area{{0.0, 0.0}, {400.0, 300.0}};
  const terrain::Terrain terrain(area, 10.0);

  rem::RemBank bank(area, 20.0, kAlt);
  for (int i = 0; i < 6; ++i) {
    bank.add_ue({50.0 + 60.0 * i, 80.0 + 20.0 * (i % 3), 1.5});
    bank.seed_from_model(i, channel(), rf::LinkBudget{});
  }
  bank.estimate_all();
  ASSERT_TRUE(bank.estimates_current());

  fleet::Fleet f(tiny_config(), channel());
  f.add_cell({100.0, 150.0, kAlt});
  f.add_cell({300.0, 150.0, kAlt});
  for (int i = 0; i < 8; ++i) {
    f.add_ue({60.0 + 15.0 * i, 100.0, 1.5}, cbr(5e5));
  }

  f.run_epoch();
  const fleet::PlacementRefresh first = f.refresh_placement(bank, terrain);
  EXPECT_EQ(first.cell, 0);  // epoch 1 refreshes cell 0
  EXPECT_GT(first.points, 0);
  EXPECT_TRUE(std::isfinite(first.objective_db));
  EXPECT_TRUE(area.contains(first.position));
  EXPECT_EQ(f.cell_position(0).x, first.position.x);
  EXPECT_EQ(f.cell_position(0).z, kAlt);

  f.run_epoch();
  const fleet::PlacementRefresh second = f.refresh_placement(bank, terrain);
  EXPECT_EQ(second.cell, 1);  // epoch 2 refreshes cell 1
  EXPECT_EQ(f.total_placement_refreshes(), 2u);
}

}  // namespace

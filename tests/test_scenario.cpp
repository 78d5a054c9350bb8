// scenario::Campaign suite: the deterministic demand/mobility shapes
// (diurnal curve, commuter flow, flash crowds), the serial == 8-worker
// bit-identity of a whole campaign report, pinned hour and campaign digests,
// battery-swap logistics, the save/restore round-trip with fingerprint,
// byte-flip, version-1 and out-of-range-field rejection (strong guarantee),
// and the fallback walk over campaign generation files. The kill-at-hour.tick
// case SIGKILLs example_campaign_mini (tests/kill_resume.cmake).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "geo/binio.hpp"
#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "kernels/kernels.hpp"
#include "mobility/commuter.hpp"
#include "reseal.hpp"
#include "scenario/campaign.hpp"
#include "scenario/shapes.hpp"
#include "sim/generation_store.hpp"

namespace {

using namespace skyran;

// Small but fully featured: weather fronts, crowds and a battery pool that
// trips its reserve within the horizon (2400 Wh at 1200 W hover and 1800 s
// epochs drains 600 Wh per epoch).
scenario::CampaignConfig tiny_campaign(int threads = 1, int hours = 3) {
  scenario::CampaignConfig cfg = scenario::example_day_config(0xDA11ULL, 40, 2);
  cfg.hours = hours;
  cfg.epochs_per_hour = 2;
  cfg.threads = threads;
  cfg.fleet.ttis_per_epoch = 40;
  cfg.base_rate_bps = 2e5;
  return cfg;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- shapes -----------------------------------------------------------------

TEST(Diurnal, FloorBumpsAndClamp) {
  // Deep night sits near the floor (the bumps' tails still contribute).
  double night_min = 1.0;
  for (double h = 1.0; h < 6.0; h += 0.1) {
    night_min = std::min(night_min, scenario::diurnal_level(h));
  }
  EXPECT_GE(night_min, scenario::kNightFloor);
  EXPECT_LT(night_min, scenario::kNightFloor + 0.1);
  EXPECT_GT(scenario::diurnal_level(scenario::kMorningPeakH), 0.5);
  EXPECT_DOUBLE_EQ(scenario::diurnal_level(scenario::kEveningPeakH), 1.0);  // clamped
  for (double h = 0.0; h < 24.0; h += 0.25) {
    const double level = scenario::diurnal_level(h);
    EXPECT_GT(level, 0.0);
    EXPECT_LE(level, 1.0);
  }
  // 24 h wrap: the curve is continuous across midnight.
  EXPECT_NEAR(scenario::diurnal_level(23.999), scenario::diurnal_level(0.001), 1e-3);
}

TEST(FlashCrowdShape, TrapezoidEngagement) {
  scenario::FlashCrowd c;
  c.start_h = 18.0;
  c.fill_h = 1.0;
  c.hold_h = 2.0;
  c.drain_h = 1.0;
  EXPECT_DOUBLE_EQ(scenario::crowd_engagement(c, 18.0), 0.0);
  EXPECT_DOUBLE_EQ(scenario::crowd_engagement(c, 18.5), 0.5);
  EXPECT_DOUBLE_EQ(scenario::crowd_engagement(c, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(scenario::crowd_engagement(c, 21.5), 0.5);
  EXPECT_DOUBLE_EQ(scenario::crowd_engagement(c, 22.5), 0.0);
  EXPECT_DOUBLE_EQ(scenario::crowd_engagement(c, 3.0), 0.0);
}

TEST(FlashCrowdShape, StadiumPullsMembersIntoVenue) {
  scenario::FlashCrowd c;
  c.kind = scenario::CrowdKind::kStadium;
  c.center = {500.0, 500.0};
  c.radius_m = 80.0;
  c.ue_fraction = 0.5;
  int members = 0;
  for (std::size_t ue = 0; ue < 200; ++ue) {
    if (!scenario::crowd_applies(c, ue, {0.0, 0.0}, 7, 1)) continue;
    ++members;
    const geo::Vec2 seated = scenario::crowd_position(c, {0.0, 0.0}, ue, 1.0, 7, 1);
    EXPECT_LE(seated.dist(c.center), c.radius_m + 1e-9);
  }
  // Counter-random attendance should land near the configured fraction.
  EXPECT_GT(members, 60);
  EXPECT_LT(members, 140);
  EXPECT_DOUBLE_EQ(scenario::crowd_rate_multiplier(c, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(scenario::crowd_rate_multiplier(c, 1.0), c.rate_boost);
}

TEST(FlashCrowdShape, EvacuationPushesOutOnlyInsideRadius) {
  scenario::FlashCrowd c;
  c.kind = scenario::CrowdKind::kEvacuation;
  c.center = {100.0, 100.0};
  c.radius_m = 50.0;
  const geo::Vec2 inside{110.0, 100.0};
  const geo::Vec2 outside{400.0, 400.0};
  EXPECT_TRUE(scenario::crowd_applies(c, 0, inside, 7, 1));
  EXPECT_FALSE(scenario::crowd_applies(c, 0, outside, 7, 1));
  const geo::Vec2 fled = scenario::crowd_position(c, inside, 0, 1.0, 7, 1);
  EXPECT_NEAR(fled.dist(c.center), 2.5 * c.radius_m, 1e-9);
}

// --- commuter flow ----------------------------------------------------------

TEST(Commuter, HomeOfficeAndRestPhases) {
  mobility::CommuterPlan plan;
  plan.seed = 42;
  for (std::size_t ue = 0; ue < 50; ++ue) {
    const geo::Vec2 home = mobility::commuter_home(plan, ue);
    const geo::Vec2 office = mobility::commuter_office(plan, ue);
    EXPECT_EQ(mobility::commuter_position(plan, ue, 3.0), home);
    EXPECT_EQ(mobility::commuter_position(plan, ue, 12.0), office);
    EXPECT_EQ(mobility::commuter_position(plan, ue, 23.0), home);
  }
}

TEST(Commuter, ProgressMonotoneAndStaggered) {
  mobility::CommuterPlan plan;
  plan.seed = 42;
  for (std::size_t ue = 0; ue < 20; ++ue) {
    double prev = -1.0;
    for (double h = mobility::kMorningStartH; h <= mobility::kMorningEndH; h += 0.05) {
      const double s = mobility::commute_progress(plan, ue, h);
      EXPECT_GE(s, prev);
      prev = s;
    }
    EXPECT_DOUBLE_EQ(prev, 1.0);  // everyone arrives by the window's end
  }
  // Stagger: at the same instant mid-window, different UEs are at different
  // points of the walk.
  const double mid = 0.5 * (mobility::kMorningStartH + mobility::kMorningEndH);
  double lo = 1.0;
  double hi = 0.0;
  for (std::size_t ue = 0; ue < 50; ++ue) {
    const double s = mobility::commute_progress(plan, ue, mid);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_LT(lo, hi);
}

TEST(Commuter, WalkStaysOnLPathInsideArea) {
  mobility::CommuterPlan plan;
  plan.seed = 7;
  for (std::size_t ue = 0; ue < 20; ++ue) {
    const geo::Vec2 home = mobility::commuter_home(plan, ue);
    const geo::Vec2 office = mobility::commuter_office(plan, ue);
    for (double h = mobility::kMorningStartH; h < mobility::kMorningEndH; h += 0.1) {
      const geo::Vec2 p = mobility::commuter_position(plan, ue, h);
      EXPECT_GE(p.x, plan.area_min.x);
      EXPECT_LE(p.x, plan.area_max.x);
      EXPECT_GE(p.y, plan.area_min.y);
      EXPECT_LE(p.y, plan.area_max.y);
      // Every point of the L sits on the home street or the office avenue.
      EXPECT_TRUE(std::abs(p.y - home.y) < 1e-9 || std::abs(p.x - office.x) < 1e-9);
    }
  }
}

TEST(Commuter, SnapLandsOnGridLine) {
  mobility::CommuterPlan plan;
  for (double x = 3.0; x < 1200.0; x += 97.3) {
    for (double y = 11.0; y < 1200.0; y += 89.7) {
      const geo::Vec2 p = mobility::snap_to_street_grid(plan, {x, y});
      const double ax = std::abs(p.x / mobility::kStreetPitchXM -
                                 std::round(p.x / mobility::kStreetPitchXM));
      const double sy = std::abs(p.y / mobility::kStreetPitchYM -
                                 std::round(p.y / mobility::kStreetPitchYM));
      EXPECT_TRUE(ax < 1e-9 || sy < 1e-9) << "off-grid point " << p.x << "," << p.y;
    }
  }
}

// --- campaign ---------------------------------------------------------------

TEST(Campaign, SerialEqualsEightWorkers) {
  scenario::Campaign serial(tiny_campaign(1));
  scenario::Campaign parallel(tiny_campaign(8));
  const scenario::CampaignReport a = serial.run();
  const scenario::CampaignReport b = parallel.run();
  EXPECT_EQ(scenario::campaign_digest(a), scenario::campaign_digest(b));
  EXPECT_EQ(serial.state_hash(), parallel.state_hash());
}

TEST(Campaign, ReportWellFormed) {
  scenario::Campaign campaign(tiny_campaign());
  const scenario::CampaignReport rep = campaign.run();
  EXPECT_EQ(rep.hours, 3);
  EXPECT_EQ(rep.epochs, 6);
  ASSERT_EQ(rep.by_hour.size(), 3u);
  EXPECT_GE(rep.availability, 0.0);
  EXPECT_LE(rep.availability, 1.0);
  EXPECT_LE(rep.min_hour_availability, rep.availability);
  EXPECT_GT(rep.served_bits, 0.0);
  EXPECT_GE(rep.offered_bits, rep.served_bits * 0.5);
  EXPECT_GT(rep.energy_wh, 0.0);
  EXPECT_GT(rep.energy_wh_per_gbit, 0.0);
  for (const scenario::HourReport& hr : rep.by_hour) {
    EXPECT_GT(hr.diurnal_level, 0.0);
    EXPECT_LE(hr.p5_tput_bps, hr.p50_tput_bps);
    EXPECT_LE(hr.p50_tput_bps, hr.p95_tput_bps);
  }
  EXPECT_TRUE(campaign.done());
  EXPECT_THROW(campaign.run_hour(), ContractViolation);
}

TEST(Campaign, BatterySwapRotatesThroughDepot) {
  scenario::Campaign campaign(tiny_campaign());
  const scenario::CampaignReport rep = campaign.run();
  // 2400 Wh pool at 600 Wh per 1800 s epoch trips the reserve within the
  // 3 h horizon for every cell.
  EXPECT_GT(rep.swaps, 0u);
  EXPECT_GT(rep.depot_epochs, 0u);
  // Everyone who swapped came back with a fresh pack; nobody is stranded
  // below the reserve with the swap already spent.
  for (std::size_t c = 0; c < campaign.cell_count(); ++c) {
    if (!campaign.cell_at_depot(c)) {
      EXPECT_GT(campaign.cell_battery_fraction(c), 0.0);
    }
  }
}

TEST(Campaign, DiurnalLevelModulatesOfferedLoad) {
  // Same population, one hour at night vs one hour at the evening peak: the
  // diurnal multiplier must show up in offered bits.
  scenario::CampaignConfig cfg = tiny_campaign(1, 24);
  scenario::Campaign campaign(cfg);
  std::vector<scenario::HourReport> rows;
  while (!campaign.done()) rows.push_back(campaign.run_hour());
  const scenario::HourReport& night = rows[3];
  const scenario::HourReport& peak = rows[20];
  EXPECT_GT(peak.diurnal_level, 2.0 * night.diurnal_level);
  EXPECT_GT(peak.offered_bits, night.offered_bits);
}

void expect_same_hour(const scenario::HourReport& a, const scenario::HourReport& b,
                      int workers) {
  SCOPED_TRACE(testing::Message() << "hour " << a.hour << ", " << workers << " workers");
  EXPECT_EQ(a.hour, b.hour);
  EXPECT_EQ(a.diurnal_level, b.diurnal_level);
  EXPECT_EQ(a.offered_bits, b.offered_bits);
  EXPECT_EQ(a.served_bits, b.served_bits);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.mean_sinr_db, b.mean_sinr_db);
  EXPECT_EQ(a.p5_tput_bps, b.p5_tput_bps);
  EXPECT_EQ(a.p50_tput_bps, b.p50_tput_bps);
  EXPECT_EQ(a.p95_tput_bps, b.p95_tput_bps);
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.pingpongs, b.pingpongs);
  EXPECT_EQ(a.steering_steps, b.steering_steps);
  EXPECT_EQ(a.swaps_started, b.swaps_started);
  EXPECT_EQ(a.depot_epochs, b.depot_epochs);
  EXPECT_EQ(a.energy_wh, b.energy_wh);
}

std::string saved_bytes(const scenario::Campaign& campaign) {
  std::ostringstream os;
  campaign.save(os);
  return os.str();
}

// run_hour fans its per-UE loops (spec derivation, positions, the served
// tally) out over UEs and selects its percentiles: a full day at 1, 4 and 8
// workers must agree on every hour row, the state hash and the checkpoint
// bytes. The day must also reach the branches those loops take: a crowd
// pulling UEs into its venue and commuters caught mid-walk.
TEST(Campaign, HourLoopsMatchAcrossWorkers) {
  const auto config = [](int threads) {
    scenario::CampaignConfig cfg = scenario::example_day_config(0x600DULL, 600, 3);
    cfg.epochs_per_hour = 2;  // as in bench/campaign_day
    cfg.threads = threads;
    return cfg;
  };
  scenario::Campaign serial(config(1));
  scenario::Campaign four(config(4));
  scenario::Campaign eight(config(8));
  const mobility::CommuterPlan& plan = serial.commute_plan();
  const scenario::FlashCrowd& stadium = serial.config().crowds.at(0);
  ASSERT_EQ(stadium.kind, scenario::CrowdKind::kStadium);
  const auto in_venue = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < serial.fleet().ue_count(); ++i)
      if (serial.fleet().ue_position(i).xy().dist(stadium.center) < stadium.radius_m) ++n;
    return n;
  };
  const std::size_t quiet_venue = in_venue();  // hour 0: no crowd engaged
  bool crowd_seen = false;
  bool walk_seen = false;
  while (!serial.done()) {
    const scenario::HourReport row = serial.run_hour();
    expect_same_hour(row, four.run_hour(), 4);
    expect_same_hour(row, eight.run_hour(), 8);
    EXPECT_EQ(serial.state_hash(), four.state_hash()) << "hour " << row.hour;
    EXPECT_EQ(serial.state_hash(), eight.state_hash()) << "hour " << row.hour;

    // Positions now hold the hour's last epoch.
    const double hod = row.hour + 0.75;
    if (scenario::crowd_engagement(stadium, hod) > 0.0 && in_venue() > quiet_venue)
      crowd_seen = true;
    for (std::size_t i = 0; i < serial.fleet().ue_count() && !walk_seen; ++i) {
      const double s = mobility::commute_progress(plan, i, hod);
      if (s <= 0.0 || s >= 1.0) continue;
      const geo::Vec2 walking = mobility::commuter_position(plan, i, hod);
      const geo::Vec3 at = serial.fleet().ue_position(i);
      walk_seen = at.x == walking.x && at.y == walking.y;
    }
  }
  EXPECT_TRUE(crowd_seen);
  EXPECT_TRUE(walk_seen);
  const std::string bytes = saved_bytes(serial);
  EXPECT_EQ(bytes, saved_bytes(four));
  EXPECT_EQ(bytes, saved_bytes(eight));
}

// Pinned digests of a 2-hour mini campaign: a change to the hashed bytes,
// or to campaign behaviour, moves them. Path loss is a tolerance kernel, so
// the pin runs on the scalar path.
TEST(Campaign, DigestsPinned) {
  const kernels::ScopedScalarKernels scalar;
  scenario::Campaign campaign(tiny_campaign(1, 2));
  const scenario::CampaignReport rep = campaign.run();
  ASSERT_EQ(rep.by_hour.size(), 2u);
  EXPECT_EQ(scenario::hour_digest(rep.by_hour[0]), 0xd41f0b69cc07422eULL);
  EXPECT_EQ(scenario::hour_digest(rep.by_hour[1]), 0x3b8d3ffa52e21f67ULL);
  EXPECT_EQ(scenario::campaign_digest(rep), 0x342cb12e63993f01ULL);
}

// --- save / restore ---------------------------------------------------------

TEST(CampaignCheckpoint, RoundTripResumesBitIdentically) {
  scenario::Campaign reference(tiny_campaign(1, 4));
  scenario::Campaign resumed(tiny_campaign(8, 4));
  reference.run_hour();
  reference.run_hour();
  std::ostringstream saved;
  reference.save(saved);
  std::istringstream in(saved.str());
  resumed.restore(in);
  EXPECT_EQ(reference.state_hash(), resumed.state_hash());
  const scenario::CampaignReport a = reference.run();
  const scenario::CampaignReport b = resumed.run();
  EXPECT_EQ(scenario::campaign_digest(a), scenario::campaign_digest(b));
}

TEST(CampaignCheckpoint, RejectsForeignFingerprintAndStaysUnchanged) {
  scenario::Campaign source(tiny_campaign(1, 4));
  source.run_hour();
  std::ostringstream saved;
  source.save(saved);

  scenario::CampaignConfig other = tiny_campaign(1, 4);
  other.seed = 0xBEEF;
  scenario::Campaign victim(other);
  const std::uint64_t before = victim.state_hash();
  std::istringstream in(saved.str());
  EXPECT_THROW(victim.restore(in), geo::StateMismatchError);
  EXPECT_EQ(victim.state_hash(), before);
}

TEST(CampaignCheckpoint, RejectsFleetTemplateChanges) {
  scenario::Campaign source(tiny_campaign(1, 4));
  source.run_hour();
  std::ostringstream saved;
  source.save(saved);
  const auto restores = [&](const auto& skew) {
    scenario::CampaignConfig cfg = tiny_campaign(1, 4);
    skew(cfg);
    scenario::Campaign other(cfg);
    std::istringstream in(saved.str());
    other.restore(in);
  };

  EXPECT_THROW(restores([](scenario::CampaignConfig& c) { c.fleet.plane.harq_max_retx += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) {
                 c.fleet.plane.carrier = lte::bandwidth_config(5.0);
               }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) {
                 c.fleet.faults.add({sim::FaultKind::kSrsSnrSag, 1.0, 2.0, 3.0, 0.0});
               }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) { c.fleet.ttis_per_epoch += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) { c.fleet.a3.offset_db += 0.5; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) { c.fleet.steering.step_db += 0.5; }),
               geo::StateMismatchError);
  // The rest of the campaign's own sub-configs.
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) { c.depot.swap_epochs += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(
      restores([](scenario::CampaignConfig& c) { c.depot.battery.capacity_wh += 1.0; }),
      geo::StateMismatchError);
  EXPECT_THROW(restores([](scenario::CampaignConfig& c) { c.crowds.at(0).rate_boost += 1.0; }),
               geo::StateMismatchError);
  EXPECT_THROW(
      restores([](scenario::CampaignConfig& c) { c.weather.push_back({1.0, 2.0, 3.0}); }),
      geo::StateMismatchError);
  // The fleet derives every plane seed itself: resume-neutral.
  EXPECT_NO_THROW(restores([](scenario::CampaignConfig& c) { c.fleet.plane.seed += 1; }));
}

TEST(CampaignCheckpoint, RejectsCorruptionAndStaysUnchanged) {
  scenario::Campaign source(tiny_campaign(1, 4));
  source.run_hour();
  std::ostringstream saved;
  source.save(saved);
  const std::string bytes = saved.str();

  scenario::Campaign victim(tiny_campaign(1, 4));
  const std::uint64_t before = victim.state_hash();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    std::istringstream in(bad);
    EXPECT_THROW(victim.restore(in), geo::BinFormatError) << "flip at " << pos;
    ASSERT_EQ(victim.state_hash(), before) << "flip at " << pos;
  }
  // A version-1 stream is refused as a version.
  std::istringstream v1(testbinio::with_version(bytes, 1));
  EXPECT_THROW(victim.restore(v1), geo::BinVersionError);
  EXPECT_EQ(victim.state_hash(), before);
}

// CRC-valid fields that no save can hold are corrupt, and are refused
// before anything is committed (a 2-hour victim must stay at hour 2).
TEST(CampaignCheckpoint, RejectsOutOfRangeFieldsAndStaysUnchanged) {
  scenario::Campaign source(tiny_campaign(1, 4));
  source.run_hour();
  std::ostringstream saved;
  source.save(saved);
  const std::string bytes = saved.str();

  scenario::Campaign victim(tiny_campaign(1, 4));
  victim.run_hour();
  victim.run_hour();
  const std::uint64_t before = victim.state_hash();
  const auto expect_corrupt = [&](const std::string& bad, const char* what) {
    std::istringstream in(bad);
    EXPECT_THROW(victim.restore(in), geo::BinCorruptError) << what;
    EXPECT_EQ(victim.state_hash(), before) << what;
    EXPECT_EQ(victim.hours_run(), 2) << what;
  };
  // Payload: fingerprint (8), cell count (8), hour (4), then per cell Wh
  // (8) and swap epochs left (4), then energy (8), swaps, depot epochs,
  // served and total samples (8 each).
  const std::size_t totals = 20 + 12 * victim.cell_count();
  expect_corrupt(testbinio::patched(bytes, 16, std::int32_t{-1}), "hour -1");
  expect_corrupt(testbinio::patched(bytes, 16, std::int32_t{victim.config().hours + 1}),
                 "hour past the campaign");
  expect_corrupt(testbinio::patched(bytes, 20, -1.0), "negative Wh");
  expect_corrupt(testbinio::patched(bytes, 20, std::nan("")), "NaN Wh");
  expect_corrupt(testbinio::patched(bytes, 28, std::int32_t{99}), "swap epochs left");
  expect_corrupt(testbinio::patched(bytes, totals, HUGE_VAL), "infinite energy");
  expect_corrupt(testbinio::patched(bytes, totals + 24, ~std::uint64_t{0}), "served > total");
}

// save() sizes its payload with a counting walk first; the bytes must be
// those of a plain BinWriter sealed as "SKYD" v2: the config fingerprint,
// the cell count, the campaign's own state, then the fleet's write_state().
// The campaign's state section is private, so it is cut from the save by its
// layout and checked against state_hash(), which hashes exactly those bytes
// and then the fleet's hash.
TEST(CampaignCheckpoint, SaveMatchesUnsizedWriter) {
  scenario::Campaign campaign(tiny_campaign(1, 4));
  campaign.run_hour();
  campaign.run_hour();
  const std::string bytes = saved_bytes(campaign);
  std::istringstream in(bytes);
  const std::string payload = geo::read_envelope(in, "SKYD", 2, "test");
  // hour (4), per cell Wh (8) and swap epochs left (4), energy (8), four
  // u64 totals (32), then one 116-byte row per hour run.
  const std::size_t state_size = 4 + 12 * campaign.cell_count() + 8 + 32 + 116 * 2;
  ASSERT_GE(payload.size(), 16 + state_size);
  const std::string state = payload.substr(16, state_size);
  geo::Fnv1a h(1469598103934665603ULL);
  h.bytes(state.data(), state.size());
  h.pod(campaign.fleet().state_hash());
  ASSERT_EQ(h.value(), campaign.state_hash());

  geo::BinWriter w;
  w.pod(scenario::config_digest(campaign.config()));
  w.pod(static_cast<std::uint64_t>(campaign.cell_count()));
  w.bytes(state.data(), state.size());
  campaign.fleet().write_state(w);
  std::ostringstream expected;
  geo::write_envelope(expected, "SKYD", 2, w.buffer());
  EXPECT_EQ(bytes, expected.str());
}

// Campaign generations on the shared checkpoint store ("camp-<hour>.skyd").
std::optional<int> restore_latest(sim::GenerationStore& store, scenario::Campaign& campaign) {
  return store.restore_latest([&](std::istream& is) { campaign.restore(is); });
}

void save(sim::GenerationStore& store, const scenario::Campaign& campaign) {
  store.save(campaign.hours_run(), saved_bytes(campaign));
}

TEST(CampaignGenerations, FallsBackPastCorruptNewestGeneration) {
  const std::filesystem::path dir = fresh_dir("skyran_test_campaign_ckpt");
  scenario::Campaign campaign(tiny_campaign(1, 4));
  sim::GenerationStore store(dir, "camp-", ".skyd");
  campaign.run_hour();
  save(store, campaign);
  const std::uint64_t hash_h1 = campaign.state_hash();
  campaign.run_hour();
  save(store, campaign);

  // Torch the newest generation on disk; restore must fall back to hour 1.
  {
    std::ofstream os(store.generations().back(), std::ios::binary | std::ios::trunc);
    os << "not a checkpoint";
  }
  scenario::Campaign resumed(tiny_campaign(1, 4));
  const std::optional<int> hour = restore_latest(store, resumed);
  ASSERT_TRUE(hour.has_value());
  EXPECT_EQ(*hour, 1);
  EXPECT_EQ(resumed.state_hash(), hash_h1);
  EXPECT_FALSE(store.last_errors().empty());
  std::filesystem::remove_all(dir);
}

TEST(CampaignGenerations, NoGenerationsReturnsNullopt) {
  const std::filesystem::path dir = fresh_dir("skyran_test_campaign_empty");
  sim::GenerationStore store(dir, "camp-", ".skyd");
  scenario::Campaign campaign(tiny_campaign(1, 4));
  const std::uint64_t before = campaign.state_hash();
  EXPECT_FALSE(restore_latest(store, campaign).has_value());
  EXPECT_EQ(campaign.state_hash(), before);
  std::filesystem::remove_all(dir);
}

}  // namespace

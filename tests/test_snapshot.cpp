// Checkpoint/restore suite: envelope round-trips, every-prefix truncation +
// whole-stream byte-flip rejection with typed errors, oversized element
// counts in a CRC-valid payload, version-skew and session-mismatch
// rejection, all-or-nothing SkyRan::restore, the sim::GenerationStore
// generation files and their newest-first fallback walk, and the
// headline resume contract — a campaign resumed from the checkpoint taken
// after epoch k produces bit-identical EpochReports for epochs k+1..N to
// the uninterrupted run, serial and 8-worker. The SIGKILL side of the
// contract is the kill-and-resume suite of the shipped binaries
// (tests/kill_resume.cmake).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "geo/binio.hpp"
#include "scenario/campaign.hpp"
#include "sim/generation_store.hpp"
#include "sim/shutdown.hpp"
#include "snapshot_campaign.hpp"

namespace {

using namespace skyran;
namespace fs = std::filesystem;

constexpr int kEpochs = 8;

/// Serialize a snapshot to bytes.
std::string to_bytes(const core::Snapshot& s) {
  std::ostringstream os;
  s.save(os);
  return os.str();
}

core::Snapshot from_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  return core::Snapshot::load(is);
}

/// A short campaign (3 epochs) whose snapshot exercises every section:
/// non-empty store, multi-entry history, drained battery, advanced RNG.
/// The campaign runs once per binary; each caller gets its own copy.
core::Snapshot sample_snapshot() {
  static const core::Snapshot sample = [] {
    sim::World world(testcampaign::world_config());
    core::SkyRan skyran(world, testcampaign::skyran_config(1), testcampaign::kCampaignSeed);
    testcampaign::run_epochs(skyran, world, 3);
    return skyran.snapshot();
  }();
  return sample;
}

/// The element counts of a snapshot payload, in stream order.
enum class CountField { kLastEstimates, kUePositions, kHistory, kTrajectories, kPoints, kNone };

/// CRC-valid snapshot bytes whose `field` count claims `n` elements and
/// whose payload ends right after that count. Every earlier field is well
/// formed; with kNone the bytes are a complete, loadable snapshot holding
/// one history entry with one empty path.
std::string bytes_with_count(CountField field, std::uint64_t n) {
  geo::BinWriter w;
  w.pod(std::uint64_t{1});  // seed
  w.pod(std::uint64_t{2});  // config fingerprint
  w.pod(std::int32_t{3});   // epoch
  w.pod(geo::Vec2{});       // position
  w.pod(60.0);              // altitude
  w.pod(std::uint8_t{1});   // altitude known
  w.pod(0.0);               // total flight
  w.pod(0.0);               // throughput at placement
  w.pod(0.0);               // battery
  w.str("rng");
  const auto seal = [&w] {
    std::ostringstream os;
    geo::write_envelope(os, "SKYS", core::Snapshot::kVersion, w);
    return os.str();
  };
  // Writes `valid` unless this is the oversized field; true when it was.
  const auto count = [&](CountField f, std::uint64_t valid) {
    w.pod(f == field ? n : valid);
    return f == field;
  };
  if (count(CountField::kLastEstimates, 0) || count(CountField::kUePositions, 0)) return seal();
  std::ostringstream store;
  rem::RemStore().save(store);
  w.str(store.str());
  if (count(CountField::kHistory, 1)) return seal();
  w.pod(geo::Vec2{});  // entry position
  if (count(CountField::kTrajectories, 1)) return seal();
  count(CountField::kPoints, 0);
  return seal();
}

/// Unique scratch directory removed at scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() / ("skyran_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// ------------------------------------------------------------- round trip --

TEST(SnapshotFormatTest, RoundTripPreservesEveryField) {
  const core::Snapshot s = sample_snapshot();
  const core::Snapshot r = from_bytes(to_bytes(s));
  EXPECT_EQ(r.seed, s.seed);
  EXPECT_EQ(r.config_fingerprint, s.config_fingerprint);
  EXPECT_EQ(r.epoch, s.epoch);
  EXPECT_EQ(r.position.x, s.position.x);
  EXPECT_EQ(r.position.y, s.position.y);
  EXPECT_EQ(r.altitude_m, s.altitude_m);
  EXPECT_EQ(r.altitude_known, s.altitude_known);
  EXPECT_EQ(r.total_flight_m, s.total_flight_m);
  EXPECT_EQ(r.throughput_at_placement_bps, s.throughput_at_placement_bps);
  EXPECT_EQ(r.battery_remaining_wh, s.battery_remaining_wh);
  EXPECT_EQ(r.rng_state, s.rng_state);
  ASSERT_EQ(r.last_estimates.size(), s.last_estimates.size());
  for (std::size_t i = 0; i < s.last_estimates.size(); ++i) {
    EXPECT_EQ(r.last_estimates[i].x, s.last_estimates[i].x);
    EXPECT_EQ(r.last_estimates[i].y, s.last_estimates[i].y);
  }
  ASSERT_EQ(r.ue_positions.size(), s.ue_positions.size());
  ASSERT_EQ(r.store.size(), s.store.size());
  ASSERT_EQ(r.history.size(), s.history.size());
  for (std::size_t i = 0; i < s.history.size(); ++i) {
    EXPECT_EQ(r.history[i].position.x, s.history[i].position.x);
    ASSERT_EQ(r.history[i].trajectories.size(), s.history[i].trajectories.size());
    for (std::size_t p = 0; p < s.history[i].trajectories.size(); ++p)
      EXPECT_EQ(r.history[i].trajectories[p].points(), s.history[i].trajectories[p].points());
  }
  // Snapshot content is non-trivial: a 3-epoch campaign has stored REMs,
  // flown tours, and a drained battery.
  EXPECT_EQ(s.epoch, 3);
  EXPECT_GT(s.store.size(), 0u);
  EXPECT_GT(s.history.size(), 0u);
  EXPECT_LT(s.battery_remaining_wh, testcampaign::skyran_config(1).battery.capacity_wh);
  EXPECT_FALSE(s.rng_state.empty());
}

// ------------------------------------------------- corrupt-input rejection --

TEST(SnapshotFormatTest, EveryPrefixRejected) {
  const std::string bytes = to_bytes(sample_snapshot());
  ASSERT_GT(bytes.size(), 20u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream cut(bytes.substr(0, len));
    EXPECT_THROW(core::Snapshot::load(cut), geo::BinFormatError) << "prefix length " << len;
  }
}

TEST(SnapshotFormatTest, EveryByteFlipRejected) {
  const std::string bytes = to_bytes(sample_snapshot());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    std::istringstream is(bad);
    EXPECT_THROW(core::Snapshot::load(is), geo::BinFormatError) << "flip at " << pos;
  }
}

TEST(SnapshotFormatTest, TypedErrorsDistinguishFailureModes) {
  const std::string bytes = to_bytes(sample_snapshot());
  {
    // Magic flip -> corrupt.
    std::string bad = bytes;
    bad[0] = static_cast<char>(bad[0] ^ 0x5a);
    std::istringstream is(bad);
    EXPECT_THROW(core::Snapshot::load(is), geo::BinCorruptError);
  }
  {
    // Version field (bytes 4..7) -> version skew, not a generic failure.
    std::string bad = bytes;
    bad[4] = static_cast<char>(bad[4] ^ 0x40);
    std::istringstream is(bad);
    EXPECT_THROW(core::Snapshot::load(is), geo::BinVersionError);
  }
  {
    // Hard truncation inside the payload -> truncated.
    std::istringstream is(bytes.substr(0, bytes.size() - 7));
    EXPECT_THROW(core::Snapshot::load(is), geo::BinTruncatedError);
  }
  {
    // Payload byte flip (CRC catches it) -> corrupt.
    std::string bad = bytes;
    bad[bytes.size() - 3] = static_cast<char>(bad[bytes.size() - 3] ^ 0x5a);
    std::istringstream is(bad);
    EXPECT_THROW(core::Snapshot::load(is), geo::BinCorruptError);
  }
}

TEST(SnapshotFormatTest, OversizedCountsRejectedBeforeAllocating) {
  // The builder's layout matches the reader's: with no oversized count the
  // bytes load.
  const core::Snapshot ok = from_bytes(bytes_with_count(CountField::kNone, 0));
  ASSERT_EQ(ok.history.size(), 1u);
  ASSERT_EQ(ok.history[0].trajectories.size(), 1u);
  // A count the rest of the payload cannot hold is a typed truncation —
  // never std::length_error (2^61) or std::bad_alloc (2^40) from a resize
  // or reserve on the raw count.
  for (const CountField f : {CountField::kLastEstimates, CountField::kUePositions,
                             CountField::kHistory, CountField::kTrajectories,
                             CountField::kPoints}) {
    for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{1} << 40,
                                  std::uint64_t{1} << 61}) {
      EXPECT_THROW(from_bytes(bytes_with_count(f, n)), geo::BinTruncatedError)
          << "field " << static_cast<int>(f) << " count " << n;
    }
  }
}

TEST(SnapshotFormatTest, RestoreRejectsWrongSession) {
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(1), testcampaign::kCampaignSeed);
  testcampaign::run_epochs(skyran, world, 1);
  const core::Snapshot snap = skyran.snapshot();

  // Different seed: a different session entirely.
  core::SkyRan other_seed(world, testcampaign::skyran_config(1), testcampaign::kCampaignSeed + 1);
  EXPECT_THROW(other_seed.restore(snap), geo::StateMismatchError);

  // Different resume-relevant config: the run would silently diverge.
  core::SkyRanConfig skewed = testcampaign::skyran_config(1);
  skewed.measurement_budget_m += 50.0;
  core::SkyRan other_config(world, skewed, testcampaign::kCampaignSeed);
  EXPECT_THROW(other_config.restore(snap), geo::StateMismatchError);

  // The worker count is resume-neutral by contract: not a mismatch.
  core::SkyRan other_threads(world, testcampaign::skyran_config(8), testcampaign::kCampaignSeed);
  EXPECT_NO_THROW(other_threads.restore(snap));
}

TEST(SnapshotFormatTest, RestoreRejectsEverySubConfigChange) {
  sim::World world(testcampaign::world_config());
  const core::SkyRanConfig base = testcampaign::skyran_config(1);
  core::SkyRan skyran(world, base, testcampaign::kCampaignSeed);
  testcampaign::run_epochs(skyran, world, 1);
  const core::Snapshot snap = skyran.snapshot();
  const auto restores = [&](const auto& skew) {
    core::SkyRanConfig cfg = base;
    skew(cfg);
    core::SkyRan other(world, cfg, testcampaign::kCampaignSeed);
    other.restore(snap);
  };

  // One field of each sub-config the session reads across epochs.
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.planner.k_max += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.planner.info.i_max += 1.0; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.idw.power += 0.5; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.localizer.flight_leg_m += 1.0; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.localizer.ranging.min_snr_db -= 1.0; }),
               geo::StateMismatchError);
  EXPECT_THROW(
      restores([](core::SkyRanConfig& c) { c.localizer.ranging.min_peak_to_side_db += 1.0; }),
      geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.measurement.report_rate_hz += 1.0; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.battery.capacity_wh += 1.0; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.service.ttis += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) {
                 c.faults.add({sim::FaultKind::kSrsSnrSag, 1.0, 2.0, 3.0, 0.0});
               }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.localizer.ranging.srs.zc_root += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.service.plane.harq_max_retx += 1; }),
               geo::StateMismatchError);
  EXPECT_THROW(restores([](core::SkyRanConfig& c) { c.service.ue_traffic.gop_frames += 1; }),
               geo::StateMismatchError);
  // run_epoch overwrites the plane's seed and carrier: both resume-neutral.
  EXPECT_NO_THROW(restores([](core::SkyRanConfig& c) { c.service.plane.seed += 1; }));
  EXPECT_NO_THROW(restores(
      [](core::SkyRanConfig& c) { c.service.plane.carrier = lte::bandwidth_config(5.0); }));
}

// A snapshot that fails after the session checks must not half-apply: the
// epoch, pose, flight and battery come before the RNG text in the snapshot,
// but none of them may land when the RNG does not parse. A battery no save
// can hold is corrupt too, not a contract failure.
TEST(SnapshotFormatTest, RestoreIsAllOrNothing) {
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(1), testcampaign::kCampaignSeed);
  const std::string before = to_bytes(skyran.snapshot());
  core::Snapshot bad = sample_snapshot();
  bad.rng_state = "not an engine";
  EXPECT_THROW(skyran.restore(bad), geo::BinCorruptError);
  EXPECT_EQ(to_bytes(skyran.snapshot()), before);
  bad = sample_snapshot();
  bad.battery_remaining_wh = -1.0;
  EXPECT_THROW(skyran.restore(bad), geo::BinCorruptError);
  EXPECT_EQ(to_bytes(skyran.snapshot()), before);
}

// --------------------------------------------------------- generation files --

/// `s` saved as generation s.epoch.
fs::path save(sim::GenerationStore& store, const core::Snapshot& s) {
  return store.save(s.epoch, to_bytes(s));
}

/// The epoch of the newest generation that loads, or nullopt.
std::optional<int> load_latest(sim::GenerationStore& store) {
  return store.restore_latest([](std::istream& is) { core::Snapshot::load(is); });
}

TEST(GenerationStoreTest, KeepsNewestGenerationsAndPrunesRest) {
  TempDir dir("mgr_prune");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  core::Snapshot s = sample_snapshot();
  for (int e = 1; e <= 4; ++e) {
    s.epoch = e;
    save(store, s);
  }
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), static_cast<std::size_t>(sim::GenerationStore::kKeep));
  EXPECT_EQ(gens.back().filename().string(), "ckpt-00000004.skyc");
  EXPECT_EQ(load_latest(store), 4);
  EXPECT_TRUE(store.last_errors().empty());
}

TEST(GenerationStoreTest, CorruptNewestFallsBackToPreviousGeneration) {
  TempDir dir("mgr_fallback");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  core::Snapshot s = sample_snapshot();
  s.epoch = 1;
  save(store, s);
  s.epoch = 2;
  const fs::path newest = save(store, s);

  // Flip one payload byte of the newest generation.
  std::string bytes;
  {
    std::ifstream is(newest, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    bytes = os.str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  std::ofstream(newest, std::ios::binary | std::ios::trunc).write(bytes.data(), bytes.size());

  EXPECT_EQ(load_latest(store), 1);  // previous good generation
  ASSERT_EQ(store.last_errors().size(), 1u);
  EXPECT_NE(store.last_errors()[0].find("CRC"), std::string::npos);
}

TEST(GenerationStoreTest, OversizedCountInNewestFallsBackToPreviousGeneration) {
  TempDir dir("mgr_oversized");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  core::Snapshot s = sample_snapshot();
  s.epoch = 1;
  save(store, s);
  // A newer generation whose CRC verifies but whose history count claims
  // 2^61 entries.
  const std::string bad = bytes_with_count(CountField::kHistory, std::uint64_t{1} << 61);
  std::ofstream(dir.path / "ckpt-00000002.skyc", std::ios::binary)
      .write(bad.data(), static_cast<std::streamsize>(bad.size()));

  EXPECT_EQ(load_latest(store), 1);
  ASSERT_EQ(store.last_errors().size(), 1u);
  EXPECT_NE(store.last_errors()[0].find("ckpt-00000002.skyc"), std::string::npos);
}

TEST(GenerationStoreTest, AllGenerationsCorruptYieldsNothing) {
  TempDir dir("mgr_all_bad");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  std::ofstream(dir.path / "ckpt-00000001.skyc", std::ios::binary) << "garbage";
  std::ofstream(dir.path / "ckpt-00000002.skyc", std::ios::binary) << "more garbage";
  EXPECT_FALSE(load_latest(store).has_value());
  EXPECT_EQ(store.last_errors().size(), 2u);
}

TEST(GenerationStoreTest, StrayTempFilesAreIgnoredAndCleaned) {
  TempDir dir("mgr_tmp");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  std::ofstream(dir.path / "ckpt-00000009.skyc.tmp", std::ios::binary) << "torn write";
  core::Snapshot s = sample_snapshot();
  s.epoch = 1;
  save(store, s);
  EXPECT_EQ(store.generations().size(), 1u);
  EXPECT_FALSE(fs::exists(dir.path / "ckpt-00000009.skyc.tmp"));
  EXPECT_EQ(load_latest(store), 1);
}

// Session and campaign generations can share a directory: each store lists,
// prunes and restores only the files named by its own prefix and extension.
TEST(GenerationStoreTest, KindsSharingADirectoryStaySeparate) {
  TempDir dir("mgr_shared");
  sim::GenerationStore sessions = testcampaign::snapshot_store(dir.path);
  sim::GenerationStore campaigns(dir.path, "camp-", ".skyd");
  core::Snapshot s = sample_snapshot();
  scenario::CampaignConfig cfg = scenario::example_day_config(5, 20, 2);
  cfg.hours = 2;
  scenario::Campaign campaign(cfg);
  // Interleaved, the campaign's generations numbered past the session's.
  for (int g = 1; g <= 3; ++g) {
    s.epoch = g;
    save(sessions, s);
    std::ostringstream bytes;
    campaign.save(bytes);
    campaigns.save(g + 5, std::move(bytes).str());
  }
  ASSERT_EQ(sessions.generations().size(), 2u);
  ASSERT_EQ(campaigns.generations().size(), 2u);
  for (const fs::path& p : sessions.generations())
    EXPECT_EQ(p.extension(), ".skyc") << p;
  for (const fs::path& p : campaigns.generations())
    EXPECT_EQ(p.extension(), ".skyd") << p;

  EXPECT_EQ(load_latest(sessions), 3);
  EXPECT_TRUE(sessions.last_errors().empty());
  scenario::Campaign resumed(cfg);
  EXPECT_EQ(campaigns.restore_latest([&](std::istream& is) { resumed.restore(is); }), 8);
  EXPECT_TRUE(campaigns.last_errors().empty());
}

// A newest generation saved by another session (here: another seed) is
// valid bytes of the wrong session; the walk skips it, names the mismatch,
// and restores the older generation of this session.
TEST(GenerationStoreTest, ForeignSessionNewestFallsBackToOwnGeneration) {
  TempDir dir("mgr_foreign");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  const core::Snapshot own = sample_snapshot();  // epoch 3, kCampaignSeed
  save(store, own);
  core::Snapshot foreign = own;
  foreign.seed = testcampaign::kCampaignSeed + 1;
  foreign.epoch = 4;
  save(store, foreign);

  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(1), testcampaign::kCampaignSeed);
  EXPECT_EQ(testcampaign::restore_snapshot(store, skyran), 3);
  EXPECT_EQ(skyran.epochs_run(), 3);
  EXPECT_EQ(to_bytes(skyran.snapshot()), to_bytes(own));
  ASSERT_EQ(store.last_errors().size(), 1u);
  EXPECT_NE(store.last_errors()[0].find("ckpt-00000004.skyc"), std::string::npos);
  EXPECT_NE(store.last_errors()[0].find("snapshot seed"), std::string::npos);
}

// A new session started where another left higher-numbered generations
// keeps what it writes: save prunes only below the generation it wrote, and
// the walk rejects the foreign ones and restores this session's.
TEST(GenerationStoreTest, ForeignHigherGenerationsDoNotPruneANewSession) {
  TempDir dir("mgr_foreign_higher");
  sim::GenerationStore store = testcampaign::snapshot_store(dir.path);
  core::Snapshot foreign = sample_snapshot();
  foreign.seed = testcampaign::kCampaignSeed + 1;
  for (int e = 3; e <= 4; ++e) {
    foreign.epoch = e;
    save(store, foreign);
  }
  sim::World world(testcampaign::world_config());
  core::SkyRan session(world, testcampaign::skyran_config(1), testcampaign::kCampaignSeed);
  testcampaign::run_epochs(session, world, 1);
  const core::Snapshot own = session.snapshot();
  ASSERT_EQ(own.epoch, 1);
  const fs::path own_path = save(store, own);
  EXPECT_TRUE(fs::exists(own_path));
  EXPECT_EQ(store.generations().size(), 3u);

  sim::World fresh_world(testcampaign::world_config());
  core::SkyRan resumed(fresh_world, testcampaign::skyran_config(1),
                       testcampaign::kCampaignSeed);
  EXPECT_EQ(testcampaign::restore_snapshot(store, resumed), 1);
  EXPECT_EQ(to_bytes(resumed.snapshot()), to_bytes(own));
  ASSERT_EQ(store.last_errors().size(), 2u);
  EXPECT_NE(store.last_errors()[0].find("ckpt-00000004.skyc"), std::string::npos);
  EXPECT_NE(store.last_errors()[1].find("ckpt-00000003.skyc"), std::string::npos);
}

// ----------------------------------------------------------- shutdown flag --

TEST(ShutdownFlagTest, SignalSetsFlagOnce) {
  sim::reset_shutdown_flag();
  sim::install_shutdown_handlers();
  EXPECT_FALSE(sim::shutdown_requested());
  std::raise(SIGINT);
  EXPECT_TRUE(sim::shutdown_requested());
  sim::reset_shutdown_flag();
  EXPECT_FALSE(sim::shutdown_requested());
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

// -------------------------------------------------- deterministic resume --

/// Reference digests + per-epoch snapshot bytes for the uninterrupted run.
struct ReferenceRun {
  std::vector<std::uint64_t> digests;
  std::vector<std::string> snapshots;  // snapshots[k]: taken after epoch k+1
};

/// The uninterrupted run on `threads` workers, built once per process: the
/// tests below only read it.
const ReferenceRun& reference_run(int threads) {
  static std::map<int, ReferenceRun> runs;
  const auto [it, fresh] = runs.try_emplace(threads);
  if (fresh) {
    ReferenceRun& ref = it->second;
    sim::World world(testcampaign::world_config());
    core::SkyRan skyran(world, testcampaign::skyran_config(threads),
                        testcampaign::kCampaignSeed);
    ref.digests = testcampaign::run_epochs(skyran, world, kEpochs, [&](int, std::uint64_t) {
      ref.snapshots.push_back(to_bytes(skyran.snapshot()));
    });
  }
  return it->second;
}

void expect_resume_matches(const ReferenceRun& ref, int resume_after, int threads) {
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(threads), testcampaign::kCampaignSeed);
  skyran.restore(from_bytes(ref.snapshots[static_cast<std::size_t>(resume_after) - 1]));
  ASSERT_EQ(skyran.epochs_run(), resume_after);
  const std::vector<std::uint64_t> resumed =
      testcampaign::run_epochs(skyran, world, kEpochs);
  ASSERT_EQ(resumed.size(), static_cast<std::size_t>(kEpochs - resume_after));
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], ref.digests[static_cast<std::size_t>(resume_after) + i])
        << "epoch " << resume_after + 1 + static_cast<int>(i) << " diverged after resume at "
        << resume_after << " (threads=" << threads << ")";
}

TEST(DeterministicResumeTest, ResumeAtEveryEpochMatchesUninterruptedSerial) {
  const ReferenceRun& ref = reference_run(1);
  ASSERT_EQ(ref.digests.size(), static_cast<std::size_t>(kEpochs));
  for (int k = 1; k < kEpochs; ++k) expect_resume_matches(ref, k, 1);
}

TEST(DeterministicResumeTest, ResumeAtEveryEpochMatchesUninterruptedEightWorkers) {
  const ReferenceRun& ref = reference_run(8);
  ASSERT_EQ(ref.digests.size(), static_cast<std::size_t>(kEpochs));
  for (int k = 1; k < kEpochs; ++k) expect_resume_matches(ref, k, 8);
}

TEST(DeterministicResumeTest, SerialAndEightWorkerRunsAreBitIdentical) {
  const ReferenceRun& serial = reference_run(1);
  const ReferenceRun& parallel = reference_run(8);
  EXPECT_EQ(serial.digests, parallel.digests);
  // Snapshots are bit-identical too: the entire session state — store,
  // histories, RNG, battery — is worker-count-neutral, so a serial run can
  // be resumed on 8 workers and vice versa.
  EXPECT_EQ(serial.snapshots, parallel.snapshots);
}

TEST(DeterministicResumeTest, CrossWorkerResumeMatches) {
  // Checkpoint under serial execution, resume under 8 workers (and reverse).
  const ReferenceRun& serial = reference_run(1);
  expect_resume_matches(serial, 4, 8);
  const ReferenceRun& parallel = reference_run(8);
  expect_resume_matches(parallel, 4, 1);
}

}  // namespace

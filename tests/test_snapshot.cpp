// Checkpoint/restore suite: envelope round-trips, every-prefix truncation +
// whole-stream byte-flip rejection with typed errors, oversized element
// counts in a CRC-valid payload, version-skew and session-mismatch
// rejection, SnapshotManager generation fallback, and the
// headline resume contract — a campaign resumed from the checkpoint taken
// after epoch k produces bit-identical EpochReports for epochs k+1..N to
// the uninterrupted run, serial and 8-worker. The SIGKILL side of the
// contract lives in tests/test_crash_recovery.cpp.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "geo/binio.hpp"
#include "sim/crash_point.hpp"
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
  EXPECT_THROW(other_seed.restore(snap), core::SnapshotMismatch);

  // Different resume-relevant config: the run would silently diverge.
  core::SkyRanConfig skewed = testcampaign::skyran_config(1);
  skewed.measurement_budget_m += 50.0;
  core::SkyRan other_config(world, skewed, testcampaign::kCampaignSeed);
  EXPECT_THROW(other_config.restore(snap), core::SnapshotMismatch);

  // The worker count is resume-neutral by contract: not a mismatch.
  core::SkyRan other_threads(world, testcampaign::skyran_config(8), testcampaign::kCampaignSeed);
  EXPECT_NO_THROW(other_threads.restore(snap));
}

// --------------------------------------------------------- generation files --

TEST(SnapshotManagerTest, KeepsNewestGenerationsAndPrunesRest) {
  TempDir dir("mgr_prune");
  core::SnapshotManager mgr(dir.path, 2);
  core::Snapshot s = sample_snapshot();
  for (int e = 1; e <= 4; ++e) {
    s.epoch = e;
    mgr.save(s);
  }
  const auto gens = mgr.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens.back().filename().string(), "ckpt-00000004.skyc");
  const auto latest = mgr.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 4);
  EXPECT_TRUE(mgr.last_errors().empty());
}

TEST(SnapshotManagerTest, CorruptNewestFallsBackToPreviousGeneration) {
  TempDir dir("mgr_fallback");
  core::SnapshotManager mgr(dir.path, 2);
  core::Snapshot s = sample_snapshot();
  s.epoch = 1;
  mgr.save(s);
  s.epoch = 2;
  const fs::path newest = mgr.save(s);

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

  const auto latest = mgr.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 1);  // previous good generation
  ASSERT_EQ(mgr.last_errors().size(), 1u);
  EXPECT_NE(mgr.last_errors()[0].find("CRC"), std::string::npos);
}

TEST(SnapshotManagerTest, OversizedCountInNewestFallsBackToPreviousGeneration) {
  TempDir dir("mgr_oversized");
  core::SnapshotManager mgr(dir.path, 2);
  core::Snapshot s = sample_snapshot();
  s.epoch = 1;
  mgr.save(s);
  // A newer generation whose CRC verifies but whose history count claims
  // 2^61 entries.
  const std::string bad = bytes_with_count(CountField::kHistory, std::uint64_t{1} << 61);
  std::ofstream(dir.path / "ckpt-00000002.skyc", std::ios::binary)
      .write(bad.data(), static_cast<std::streamsize>(bad.size()));

  const auto latest = mgr.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 1);
  ASSERT_EQ(mgr.last_errors().size(), 1u);
  EXPECT_NE(mgr.last_errors()[0].find("ckpt-00000002.skyc"), std::string::npos);
}

TEST(SnapshotManagerTest, AllGenerationsCorruptYieldsNothing) {
  TempDir dir("mgr_all_bad");
  core::SnapshotManager mgr(dir.path, 2);
  std::ofstream(dir.path / "ckpt-00000001.skyc", std::ios::binary) << "garbage";
  std::ofstream(dir.path / "ckpt-00000002.skyc", std::ios::binary) << "more garbage";
  EXPECT_FALSE(mgr.load_latest().has_value());
  EXPECT_EQ(mgr.last_errors().size(), 2u);
}

TEST(SnapshotManagerTest, StrayTempFilesAreIgnoredAndCleaned) {
  TempDir dir("mgr_tmp");
  core::SnapshotManager mgr(dir.path, 2);
  std::ofstream(dir.path / "ckpt-00000009.skyc.tmp", std::ios::binary) << "torn write";
  core::Snapshot s = sample_snapshot();
  s.epoch = 1;
  mgr.save(s);
  EXPECT_EQ(mgr.generations().size(), 1u);
  EXPECT_FALSE(fs::exists(dir.path / "ckpt-00000009.skyc.tmp"));
  const auto latest = mgr.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 1);
}

// -------------------------------------------------------------- crash hooks --

TEST(CrashPointTest, DisarmedHookIsANoOpAndArmingCounts) {
  sim::disarm_crash_points();
  sim::crash_point("epoch.localize");  // disarmed: nothing happens
  EXPECT_EQ(sim::crash_point_visits(), 0);
  sim::arm_crash_point("some.point", 5);
  sim::crash_point("other.point");  // wrong name: not counted
  EXPECT_EQ(sim::crash_point_visits(), 0);
  sim::crash_point("some.point");
  sim::crash_point("some.point");
  EXPECT_EQ(sim::crash_point_visits(), 2);  // fires at 5; safe below that
  sim::disarm_crash_points();
  EXPECT_EQ(sim::crash_point_visits(), 0);
}

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

ReferenceRun reference_run(int threads) {
  ReferenceRun ref;
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(threads), testcampaign::kCampaignSeed);
  ref.digests = testcampaign::run_epochs(
      skyran, world, kEpochs, nullptr,
      [&](int, std::uint64_t) { ref.snapshots.push_back(to_bytes(skyran.snapshot())); });
  return ref;
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
  const ReferenceRun ref = reference_run(1);
  ASSERT_EQ(ref.digests.size(), static_cast<std::size_t>(kEpochs));
  for (int k = 1; k < kEpochs; ++k) expect_resume_matches(ref, k, 1);
}

TEST(DeterministicResumeTest, ResumeAtEveryEpochMatchesUninterruptedEightWorkers) {
  const ReferenceRun ref = reference_run(8);
  ASSERT_EQ(ref.digests.size(), static_cast<std::size_t>(kEpochs));
  for (int k = 1; k < kEpochs; ++k) expect_resume_matches(ref, k, 8);
}

TEST(DeterministicResumeTest, SerialAndEightWorkerRunsAreBitIdentical) {
  const ReferenceRun serial = reference_run(1);
  const ReferenceRun parallel = reference_run(8);
  EXPECT_EQ(serial.digests, parallel.digests);
  // Snapshots are bit-identical too: the entire session state — store,
  // histories, RNG, battery — is worker-count-neutral, so a serial run can
  // be resumed on 8 workers and vice versa.
  EXPECT_EQ(serial.snapshots, parallel.snapshots);
}

TEST(DeterministicResumeTest, CrossWorkerResumeMatches) {
  // Checkpoint under serial execution, resume under 8 workers (and reverse).
  const ReferenceRun serial = reference_run(1);
  expect_resume_matches(serial, 4, 8);
  const ReferenceRun parallel = reference_run(8);
  expect_resume_matches(parallel, 4, 1);
}

}  // namespace

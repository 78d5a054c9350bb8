// Kill-at-phase crash-recovery harness. For every crash point — the four
// SkyRan run_epoch phase boundaries, mid-checkpoint-write, pre-rename, and
// the fleet's epoch.steer — a forked child runs the checkpointed campaign
// and SIGKILLs itself at the armed point; a second forked child restores
// from whatever generation survived and finishes the campaign. The parent
// stitches the pre-crash digests (up to the resumed epoch) with the
// post-resume digests and requires bit-identity with an uninterrupted
// reference run.
//
// Fork discipline: the parent is a pure orchestrator — it never runs an
// epoch, so no thread-pool threads exist at fork time. All campaign work
// happens in children, which build their own pools and leave via _exit()
// (or SIGKILL). This binary is intentionally separate from test_snapshot:
// fork+threads is off-limits under TSan, so CI runs it under ASan/UBSan
// only (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "fleet/fleet.hpp"
#include "rf/channel.hpp"
#include "scenario/campaign.hpp"
#include "sim/crash_point.hpp"
#include "sim/generation_store.hpp"
#include "snapshot_campaign.hpp"

namespace {

using namespace skyran;
namespace fs = std::filesystem;

constexpr int kEpochs = 4;
constexpr int kThreads = 2;  // children exercise fork -> fresh pool
constexpr int kCrashHit = 3; // third visit: mid-campaign, not the first epoch

// Child exit codes (children cannot use gtest assertions meaningfully).
constexpr int kChildOk = 0;
constexpr int kChildNoCheckpoint = 11;
constexpr int kChildSurvivedCrash = 12;

struct CrashCase {
  const char* point;
  bool mid_epoch;  // true: the crashed epoch's digest is NOT in crash.txt
};

std::string case_name(const testing::TestParamInfo<CrashCase>& info) {
  std::string n = info.param.point;
  for (char& c : n)
    if (c == '.') c = '_';
  return n;
}

/// Append one digest line and push it to the kernel: the writer may be
/// SIGKILLed at any later instant, and the parent must still see the line.
void write_digest_line(std::ofstream& os, std::uint64_t digest) {
  os << digest << '\n';
  os.flush();
}

std::vector<std::uint64_t> read_digest_file(const fs::path& p) {
  std::vector<std::uint64_t> out;
  std::ifstream is(p);
  std::uint64_t d = 0;
  while (is >> d) out.push_back(d);
  return out;
}

/// Uninterrupted reference campaign; digests to `out`, exits 0.
[[noreturn]] void child_reference(const fs::path& out) {
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(kThreads), testcampaign::kCampaignSeed);
  std::ofstream os(out);
  testcampaign::run_epochs(skyran, world, kEpochs, nullptr,
                           [&](int, std::uint64_t d) { write_digest_line(os, d); });
  _exit(kChildOk);
}

/// Checkpointed campaign with an armed crash point. Never returns normally:
/// either SIGKILL fires at the armed point (expected) or the campaign
/// finishes, which means the crash point never triggered — report that.
[[noreturn]] void child_crasher(const fs::path& ckpt_dir, const fs::path& out,
                                const char* point) {
  sim::arm_crash_point(point, kCrashHit);
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(kThreads), testcampaign::kCampaignSeed);
  sim::GenerationStore store = testcampaign::snapshot_store(ckpt_dir);
  std::ofstream os(out);
  testcampaign::run_epochs(skyran, world, kEpochs, &store,
                           [&](int, std::uint64_t d) { write_digest_line(os, d); });
  _exit(kChildSurvivedCrash);
}

/// Restore from the surviving generation and finish the campaign. First
/// line of `out` is the epoch resumed from; the rest are resume digests.
[[noreturn]] void child_resumer(const fs::path& ckpt_dir, const fs::path& out) {
  sim::GenerationStore store = testcampaign::snapshot_store(ckpt_dir);
  sim::World world(testcampaign::world_config());
  core::SkyRan skyran(world, testcampaign::skyran_config(kThreads), testcampaign::kCampaignSeed);
  const std::optional<int> epoch = testcampaign::restore_snapshot(store, skyran);
  if (!epoch.has_value()) _exit(kChildNoCheckpoint);
  std::ofstream os(out);
  os << "resumed_from " << *epoch << '\n';
  os.flush();
  testcampaign::run_epochs(skyran, world, kEpochs, &store,
                           [&](int, std::uint64_t d) { write_digest_line(os, d); });
  _exit(kChildOk);
}

/// Fork `body`; return the raw waitpid status.
template <typename Body>
int run_child(Body&& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    body();            // [[noreturn]] paths only
    _exit(kChildOk);   // unreachable; silences -Wreturn-type style concerns
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

class CrashRecoveryTest : public testing::TestWithParam<CrashCase> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("skyran_crash_" + case_name({GetParam(), 0}) + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "ckpt");
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(CrashRecoveryTest, KillAtPointResumesBitIdentical) {
  const CrashCase c = GetParam();
  const fs::path ref_file = dir_ / "ref.txt";
  const fs::path crash_file = dir_ / "crash.txt";
  const fs::path resume_file = dir_ / "resume.txt";
  const fs::path ckpt_dir = dir_ / "ckpt";

  // Reference: uninterrupted run.
  const int ref_status = run_child([&] { child_reference(ref_file); });
  ASSERT_TRUE(WIFEXITED(ref_status)) << "reference child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(ref_status), kChildOk);
  const std::vector<std::uint64_t> ref = read_digest_file(ref_file);
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kEpochs));

  // Crash: the armed point must SIGKILL the child, not let it finish.
  const int crash_status = run_child([&] { child_crasher(ckpt_dir, crash_file, c.point); });
  ASSERT_TRUE(WIFSIGNALED(crash_status))
      << "crash child exited with status "
      << (WIFEXITED(crash_status) ? WEXITSTATUS(crash_status) : -1)
      << " instead of dying at " << c.point;
  ASSERT_EQ(WTERMSIG(crash_status), SIGKILL);

  // The crashed run made real progress before dying: with hit=3, a
  // mid-epoch kill leaves digests 1..2 behind; a checkpoint-write kill
  // leaves 1..3 (epoch 3 completed, its checkpoint did not).
  const std::vector<std::uint64_t> pre_crash = read_digest_file(crash_file);
  ASSERT_EQ(pre_crash.size(), static_cast<std::size_t>(c.mid_epoch ? kCrashHit - 1 : kCrashHit));

  // Resume: fall back to the newest *valid* generation and finish.
  const int resume_status = run_child([&] { child_resumer(ckpt_dir, resume_file); });
  ASSERT_TRUE(WIFEXITED(resume_status)) << "resume child crashed";
  ASSERT_EQ(WEXITSTATUS(resume_status), kChildOk)
      << (WEXITSTATUS(resume_status) == kChildNoCheckpoint
              ? "no valid checkpoint generation survived the crash"
              : "resume child failed");

  std::ifstream rs(resume_file);
  std::string tag;
  int resumed_from = -1;
  ASSERT_TRUE(rs >> tag >> resumed_from);
  ASSERT_EQ(tag, "resumed_from");
  // Every case kills at the third visit, after epoch 2's checkpoint landed
  // and before epoch 3's did — the surviving generation is always epoch 2.
  ASSERT_EQ(resumed_from, 2);

  std::vector<std::uint64_t> resumed;
  std::uint64_t d = 0;
  while (rs >> d) resumed.push_back(d);
  ASSERT_EQ(resumed.size(), static_cast<std::size_t>(kEpochs - resumed_from));

  // Stitch: pre-crash digests up to the resumed epoch, then the resume run.
  // (After a checkpoint-write kill, crash.txt holds one MORE digest than
  // the surviving checkpoint covers — stitching must honor resumed_from.)
  std::vector<std::uint64_t> stitched(pre_crash.begin(),
                                      pre_crash.begin() + resumed_from);
  stitched.insert(stitched.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(stitched, ref) << "resumed campaign diverged from the uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, CrashRecoveryTest,
    testing::Values(CrashCase{"epoch.localize", true}, CrashCase{"epoch.estimate", true},
                    CrashCase{"epoch.place", true}, CrashCase{"epoch.serve", true},
                    CrashCase{"ckpt.mid_write", false}, CrashCase{"ckpt.pre_rename", false}),
    case_name);

// ---------------------------------------------------------------------------
// fleet::Fleet kill-at-epoch.steer recovery. Same fork discipline: the
// parent never builds a fleet (Fleet::run_epoch spins up pool threads), so
// no threads exist at fork time. The fleet has no generation store; the
// campaign persists one save() file per completed epoch and the resume
// child restores the newest one that exists.
// ---------------------------------------------------------------------------

constexpr int kFleetEpochs = 5;

fs::path fleet_ckpt_path(const fs::path& dir, int epoch) {
  return dir / ("fleet-" + std::to_string(epoch) + ".bin");
}

/// Deterministic campaign fleet: a hot-spot pair with steering armed and a
/// marching UE that hands over mid-campaign, so the resumed epochs replay
/// CIO motion, A3 state and handovers — not just static membership.
fleet::Fleet make_campaign_fleet() {
  static const rf::FsplChannel fspl(2.6e9);
  fleet::FleetConfig cfg;
  cfg.seed = 0xF1EE7;
  cfg.threads = kThreads;
  cfg.ttis_per_epoch = 20;
  cfg.steering.period_epochs = 1;
  cfg.steering.step_db = 0.25;
  cfg.a3.time_to_trigger_epochs = 1;
  fleet::Fleet f(cfg, fspl);
  f.add_cell({0.0, 0.0, 60.0});
  f.add_cell({400.0, 0.0, 60.0});
  lte::TrafficSpec spec;
  spec.model = lte::TrafficModel::kCbr;
  spec.rate_bps = 3e5;
  for (int i = 0; i < 10; ++i) f.add_ue({40.0 + 12.0 * i, -30.0 + 6.0 * i, 1.5}, spec);
  f.add_ue({360.0, 20.0, 1.5}, spec);
  return f;
}

/// Mobility for epoch `e` as an absolute function of the epoch number, so a
/// resumed campaign replays positions identically: UE 0 marches across the
/// A3 boundary (handover around epoch 4).
void fleet_mobility(fleet::Fleet& f, int e) {
  f.set_ue_position(0, {40.0 + 60.0 * e, -30.0, 1.5});
}

/// One campaign epoch: mobility, epoch, digest line.
void fleet_epoch(fleet::Fleet& f, int e, std::ofstream& os) {
  fleet_mobility(f, e);
  f.run_epoch();  // SIGKILL fires here when epoch.steer is armed
  write_digest_line(os, f.state_hash());
}

[[noreturn]] void fleet_child_reference(const fs::path& out) {
  fleet::Fleet f = make_campaign_fleet();
  std::ofstream os(out);
  for (int e = 1; e <= kFleetEpochs; ++e) fleet_epoch(f, e, os);
  _exit(kChildOk);
}

[[noreturn]] void fleet_child_crasher(const fs::path& ckpt_dir, const fs::path& out,
                                      const char* point) {
  sim::arm_crash_point(point, kCrashHit);
  fleet::Fleet f = make_campaign_fleet();
  std::ofstream os(out);
  for (int e = 1; e <= kFleetEpochs; ++e) {
    fleet_epoch(f, e, os);
    const fs::path tmp = fleet_ckpt_path(ckpt_dir, e).concat(".tmp");
    {
      std::ofstream ck(tmp, std::ios::binary);
      f.save(ck);
    }
    fs::rename(tmp, fleet_ckpt_path(ckpt_dir, e));
  }
  _exit(kChildSurvivedCrash);
}

[[noreturn]] void fleet_child_resumer(const fs::path& ckpt_dir, const fs::path& out) {
  int latest = 0;
  for (int e = 1; e <= kFleetEpochs; ++e)
    if (fs::exists(fleet_ckpt_path(ckpt_dir, e))) latest = e;
  if (latest == 0) _exit(kChildNoCheckpoint);
  fleet::Fleet f = make_campaign_fleet();
  std::ifstream ck(fleet_ckpt_path(ckpt_dir, latest), std::ios::binary);
  f.restore(ck);
  std::ofstream os(out);
  os << "resumed_from " << latest << '\n';
  os.flush();
  for (int e = latest + 1; e <= kFleetEpochs; ++e) fleet_epoch(f, e, os);
  _exit(kChildOk);
}

class FleetCrashRecoveryTest : public testing::TestWithParam<CrashCase> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("skyran_fleet_crash_" + case_name({GetParam(), 0}) + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "ckpt");
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(FleetCrashRecoveryTest, KillAtPointResumesBitIdentical) {
  const CrashCase c = GetParam();
  const fs::path ref_file = dir_ / "ref.txt";
  const fs::path crash_file = dir_ / "crash.txt";
  const fs::path resume_file = dir_ / "resume.txt";
  const fs::path ckpt_dir = dir_ / "ckpt";

  const int ref_status = run_child([&] { fleet_child_reference(ref_file); });
  ASSERT_TRUE(WIFEXITED(ref_status)) << "reference child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(ref_status), kChildOk);
  const std::vector<std::uint64_t> ref = read_digest_file(ref_file);
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kFleetEpochs));

  const int crash_status =
      run_child([&] { fleet_child_crasher(ckpt_dir, crash_file, c.point); });
  ASSERT_TRUE(WIFSIGNALED(crash_status))
      << "crash child exited with status "
      << (WIFEXITED(crash_status) ? WEXITSTATUS(crash_status) : -1)
      << " instead of dying at " << c.point;
  ASSERT_EQ(WTERMSIG(crash_status), SIGKILL);

  // epoch.steer is inside run_epoch: the kill at visit 3 leaves digests and
  // saves for epochs 1..2 only.
  const std::vector<std::uint64_t> pre_crash = read_digest_file(crash_file);
  ASSERT_EQ(pre_crash.size(), static_cast<std::size_t>(kCrashHit - 1));

  const int resume_status = run_child([&] { fleet_child_resumer(ckpt_dir, resume_file); });
  ASSERT_TRUE(WIFEXITED(resume_status)) << "resume child crashed";
  ASSERT_EQ(WEXITSTATUS(resume_status), kChildOk)
      << (WEXITSTATUS(resume_status) == kChildNoCheckpoint
              ? "no fleet checkpoint survived the crash"
              : "fleet resume child failed");

  std::ifstream rs(resume_file);
  std::string tag;
  int resumed_from = -1;
  ASSERT_TRUE(rs >> tag >> resumed_from);
  ASSERT_EQ(tag, "resumed_from");
  ASSERT_EQ(resumed_from, kCrashHit - 1);

  std::vector<std::uint64_t> resumed;
  std::uint64_t d = 0;
  while (rs >> d) resumed.push_back(d);
  ASSERT_EQ(resumed.size(), static_cast<std::size_t>(kFleetEpochs - resumed_from));

  std::vector<std::uint64_t> stitched(pre_crash.begin(), pre_crash.begin() + resumed_from);
  stitched.insert(stitched.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(stitched, ref) << "resumed fleet campaign diverged from the uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(FleetPhases, FleetCrashRecoveryTest,
                         testing::Values(CrashCase{"epoch.steer", true}), case_name);

// ---------------------------------------------------------------------------
// scenario::Campaign kill-at-hour.tick recovery. The reference child always
// runs serial; the crash/resume children run at the parameterized worker
// count (1 and 8), so the stitched per-hour digests and the final campaign
// digest prove both the resume contract and the serial == N-worker identity
// in one pass. Same fork discipline: only children construct campaigns
// (Campaign::run_hour spins up fleet pool threads).
// ---------------------------------------------------------------------------

constexpr int kCampaignHours = 4;

scenario::CampaignConfig crash_campaign_config(int threads) {
  scenario::CampaignConfig cfg = scenario::example_day_config(0xCA54ULL, 30, 2);
  cfg.hours = kCampaignHours;
  cfg.epochs_per_hour = 2;
  cfg.threads = threads;
  cfg.fleet.ttis_per_epoch = 20;
  cfg.base_rate_bps = 2e5;
  return cfg;
}

/// Uninterrupted serial reference: one hour_digest line per hour, then the
/// whole-campaign digest.
[[noreturn]] void campaign_child_reference(const fs::path& out) {
  scenario::Campaign campaign(crash_campaign_config(1));
  std::ofstream os(out);
  while (!campaign.done()) {
    write_digest_line(os, scenario::hour_digest(campaign.run_hour()));
  }
  write_digest_line(os, scenario::campaign_digest(campaign.report()));
  _exit(kChildOk);
}

[[noreturn]] void campaign_child_crasher(const fs::path& ckpt_dir, const fs::path& out,
                                         int threads) {
  sim::arm_crash_point("hour.tick", kCrashHit);
  scenario::Campaign campaign(crash_campaign_config(threads));
  sim::GenerationStore store(ckpt_dir, "camp-", ".skyd");
  std::ofstream os(out);
  while (!campaign.done()) {
    const scenario::HourReport hr = campaign.run_hour();
    write_digest_line(os, scenario::hour_digest(hr));
    std::ostringstream bytes;
    campaign.save(bytes);
    store.save(campaign.hours_run(), std::move(bytes).str());
  }
  _exit(kChildSurvivedCrash);
}

[[noreturn]] void campaign_child_resumer(const fs::path& ckpt_dir, const fs::path& out,
                                         int threads) {
  scenario::Campaign campaign(crash_campaign_config(threads));
  sim::GenerationStore store(ckpt_dir, "camp-", ".skyd");
  const std::optional<int> hour =
      store.restore_latest([&](std::istream& is) { campaign.restore(is); });
  if (!hour.has_value()) _exit(kChildNoCheckpoint);
  std::ofstream os(out);
  os << "resumed_from " << *hour << '\n';
  os.flush();
  while (!campaign.done()) {
    write_digest_line(os, scenario::hour_digest(campaign.run_hour()));
  }
  write_digest_line(os, scenario::campaign_digest(campaign.report()));
  _exit(kChildOk);
}

class CampaignCrashRecoveryTest : public testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("skyran_campaign_crash_" + std::to_string(GetParam()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "ckpt");
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(CampaignCrashRecoveryTest, KillAtHourTickResumesBitIdentical) {
  const int workers = GetParam();
  const fs::path ref_file = dir_ / "ref.txt";
  const fs::path crash_file = dir_ / "crash.txt";
  const fs::path resume_file = dir_ / "resume.txt";
  const fs::path ckpt_dir = dir_ / "ckpt";

  const int ref_status = run_child([&] { campaign_child_reference(ref_file); });
  ASSERT_TRUE(WIFEXITED(ref_status)) << "reference child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(ref_status), kChildOk);
  // kCampaignHours hour digests plus the final campaign digest.
  const std::vector<std::uint64_t> ref = read_digest_file(ref_file);
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kCampaignHours + 1));

  const int crash_status =
      run_child([&] { campaign_child_crasher(ckpt_dir, crash_file, workers); });
  ASSERT_TRUE(WIFSIGNALED(crash_status))
      << "crash child exited with status "
      << (WIFEXITED(crash_status) ? WEXITSTATUS(crash_status) : -1)
      << " instead of dying at hour.tick";
  ASSERT_EQ(WTERMSIG(crash_status), SIGKILL);

  // hour.tick is the last statement of run_hour: the kill at visit 3 fires
  // inside hour 3, so digests and checkpoints exist for hours 1..2 only.
  const std::vector<std::uint64_t> pre_crash = read_digest_file(crash_file);
  ASSERT_EQ(pre_crash.size(), static_cast<std::size_t>(kCrashHit - 1));

  const int resume_status =
      run_child([&] { campaign_child_resumer(ckpt_dir, resume_file, workers); });
  ASSERT_TRUE(WIFEXITED(resume_status)) << "resume child crashed";
  ASSERT_EQ(WEXITSTATUS(resume_status), kChildOk)
      << (WEXITSTATUS(resume_status) == kChildNoCheckpoint
              ? "no campaign checkpoint survived the crash"
              : "campaign resume child failed");

  std::ifstream rs(resume_file);
  std::string tag;
  int resumed_from = -1;
  ASSERT_TRUE(rs >> tag >> resumed_from);
  ASSERT_EQ(tag, "resumed_from");
  ASSERT_EQ(resumed_from, kCrashHit - 1);

  std::vector<std::uint64_t> resumed;
  std::uint64_t d = 0;
  while (rs >> d) resumed.push_back(d);
  ASSERT_EQ(resumed.size(), static_cast<std::size_t>(kCampaignHours - resumed_from + 1));

  // Stitch pre-crash hour digests with the resumed hours and final digest;
  // the whole line must match the uninterrupted serial reference.
  std::vector<std::uint64_t> stitched(pre_crash.begin(), pre_crash.begin() + resumed_from);
  stitched.insert(stitched.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(stitched, ref) << "resumed campaign diverged from the uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CampaignCrashRecoveryTest, testing::Values(1, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           return info.param == 1 ? std::string("serial")
                                                  : "workers" + std::to_string(info.param);
                         });

}  // namespace

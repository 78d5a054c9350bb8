// Crash-safe checkpoint/restore for the epoch state machine. A Snapshot is
// the full between-epoch session state — epoch counter, RNG, REM store,
// trajectory histories, UAV pose/battery, last UE estimates, the world's UE
// positions — serialized into one versioned, CRC-guarded binary envelope
// (shared geo::binio format). SnapshotManager persists generations of that
// envelope double-buffered: write-tmp -> fsync -> atomic-rename -> fsync
// directory, retaining the previous generation, so a SIGKILL at any byte of
// a write can never corrupt the last good checkpoint.
//
// Resume contract (verified by tests/test_snapshot.cpp and the kill-at-phase
// harness in tests/test_crash_recovery.cpp): a SkyRan restored from the
// checkpoint taken after epoch k, driven by the same deterministic campaign,
// produces bit-identical EpochReports for epochs k+1..N to the uninterrupted
// run — on any worker count. Stateful drivers (e.g. mobility models with
// internal RNG) must persist their own state alongside; the snapshot covers
// everything inside SkyRan plus the world's UE positions.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "geo/path.hpp"
#include "geo/vec.hpp"
#include "rem/store.hpp"

namespace skyran::core {

struct EpochReport;
struct SkyRanConfig;

/// Base of the non-format rejections. A stream that is not a valid v3
/// envelope throws geo::BinTruncatedError / BinCorruptError /
/// BinVersionError (the geo::BinFormatError vocabulary every binary format
/// shares); SnapshotError covers the failures that are not about the bytes:
/// "wrong session" and filesystem trouble.
struct SnapshotError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// Filesystem-level failure (open/write/fsync/rename).
struct SnapshotIoError : SnapshotError {
  using SnapshotError::SnapshotError;
};
/// Checkpoint is valid but belongs to a different session (seed or
/// resume-relevant config differs from the restoring SkyRan's).
struct SnapshotMismatch : SnapshotError {
  using SnapshotError::SnapshotError;
};

/// Fingerprint of the resume-relevant SkyRanConfig fields. Restoring under
/// a config with a different fingerprint would silently diverge from the
/// uninterrupted run, so restore() rejects it with SnapshotMismatch.
/// `threads` is deliberately excluded: serial == N-worker bit-identity makes
/// the worker count resume-neutral.
std::uint64_t config_digest(const SkyRanConfig& config);

/// Order-sensitive 64-bit digest over every field of an EpochReport (bit
/// patterns of doubles, exact integers, the full traffic report). Two
/// reports digest equal iff they are bit-identical — the golden-replay
/// currency of the resume contract.
std::uint64_t report_digest(const EpochReport& report);

/// The full between-epoch session state of one SkyRan.
struct Snapshot {
  /// v3 dropped v2's trailing per-UE service-load field; only v3 loads.
  static constexpr std::uint32_t kVersion = 3;

  std::uint64_t seed = 0;            ///< SkyRan construction seed
  std::uint64_t config_fingerprint = 0;  ///< config_digest at capture time
  int epoch = 0;                     ///< epochs completed when captured
  geo::Vec2 position{};              ///< UAV operating position
  double altitude_m = 0.0;
  bool altitude_known = false;
  double total_flight_m = 0.0;
  double throughput_at_placement_bps = 0.0;
  double battery_remaining_wh = 0.0;
  std::string rng_state;             ///< mt19937_64 stream serialization
  std::vector<geo::Vec2> last_estimates;  ///< localization fallback family
  std::vector<geo::Vec3> ue_positions;    ///< world UE truth at capture
  rem::RemStore store;               ///< positional-reuse REM store
  struct HistoryEntry {
    geo::Vec2 position;
    std::vector<geo::Path> trajectories;
  };
  std::vector<HistoryEntry> history;  ///< per-position trajectory history

  /// Serialize as one CRC-guarded envelope.
  void save(std::ostream& os) const;

  /// Parse + verify. Throws geo::BinTruncatedError / BinCorruptError /
  /// BinVersionError; never returns a partially-filled snapshot. Every
  /// element count is checked against the bytes left in the payload before
  /// anything is allocated, so no count can surface as std::bad_alloc.
  static Snapshot load(std::istream& is);
};

/// Generation-managed, crash-safe byte-blob persistence in one directory:
/// the atomic-write/retention machinery shared by SnapshotManager (SkyRan
/// sessions) and scenario::CampaignCheckpointer (day-in-the-life campaigns).
/// It knows nothing about payload formats — callers serialize, validate and
/// fall back themselves (walk generations() newest-first, try each).
///
/// save() writes `<prefix><generation><extension>.tmp`, fsyncs it (visiting
/// the ckpt.mid_write crash point halfway through), visits ckpt.pre_rename,
/// atomically renames, fsyncs the directory, then prunes to the newest
/// `keep` generations plus stray temp files. A SIGKILL at any byte leaves
/// either the previous generations untouched or the new one fully durable —
/// never a half-written visible file.
class GenerationStore {
 public:
  /// Creates `dir` when missing. `prefix`/`extension` name the generation
  /// files (e.g. "ckpt-" / ".skyc"); generation numbers are zero-padded to
  /// eight digits so lexicographic file order equals numeric order.
  /// Throws SnapshotIoError when the directory cannot be created.
  GenerationStore(std::filesystem::path dir, std::string prefix, std::string extension,
                  int keep = 2);

  /// Persist `bytes` as generation `generation` (>= 0). Returns the final
  /// path. Throws SnapshotIoError on filesystem failure.
  std::filesystem::path save(int generation, const std::string& bytes);

  /// Generation files present, oldest first.
  std::vector<std::filesystem::path> generations() const;

  /// Generation number encoded in `path`'s filename, or -1 when the name
  /// does not match this store's prefix/extension scheme.
  int generation_of(const std::filesystem::path& path) const;

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  std::string prefix_;
  std::string extension_;
  int keep_;
};

/// Generation-managed, crash-safe checkpoint persistence in one directory.
///
/// save() writes `ckpt-<epoch>.skyc.tmp`, fsyncs it, atomically renames to
/// `ckpt-<epoch>.skyc`, fsyncs the directory, then prunes to the newest
/// `keep` generations (GenerationStore discipline). A crash at any point
/// leaves either the previous generations untouched (tmp never renamed) or
/// the new generation fully durable — never a half-written visible file.
///
/// load_latest() walks generations newest-first, returning the first one
/// that verifies; rejected generations are recorded in last_errors() and
/// counted under ckpt.* metrics, and the walk falls back to the previous
/// generation.
class SnapshotManager {
 public:
  explicit SnapshotManager(std::filesystem::path dir, int keep = 2);

  /// Persist `snapshot` as generation `snapshot.epoch`. Returns the final
  /// path. Throws SnapshotIoError on filesystem failure.
  std::filesystem::path save(const Snapshot& snapshot);

  /// Newest generation that loads + verifies, or nullopt when none does.
  std::optional<Snapshot> load_latest();

  /// Generation files present, oldest first.
  std::vector<std::filesystem::path> generations() const;

  /// Human-readable reasons every generation rejected by the last
  /// load_latest() walk was skipped.
  const std::vector<std::string>& last_errors() const { return last_errors_; }

  const std::filesystem::path& dir() const { return store_.dir(); }

 private:
  GenerationStore store_;
  std::vector<std::string> last_errors_;
};

}  // namespace skyran::core

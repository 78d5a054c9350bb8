// Crash-safe checkpoint/restore for the epoch state machine. A Snapshot is
// the full between-epoch session state — epoch counter, RNG, REM store,
// trajectory histories, UAV pose/battery, last UE estimates, the world's UE
// positions — serialized into one versioned, CRC-guarded binary envelope
// (shared geo::binio format). sim::GenerationStore persists generations of
// that envelope as `ckpt-<epoch>.skyc` files (write-tmp -> fsync ->
// atomic-rename -> fsync directory, previous generation retained), so a
// SIGKILL at any byte of a write can never corrupt the last good checkpoint:
//
//   store.save(sky.epochs_run(), bytes);
//   store.restore_latest([&](std::istream& is) { sky.restore(Snapshot::load(is)); });
//
// Resume contract (verified by tests/test_snapshot.cpp and the kill.skyran_cli
// cases of tests/kill_resume.cmake): a SkyRan restored from the checkpoint
// taken after epoch k, driven by the same deterministic campaign, produces
// bit-identical EpochReports for epochs k+1..N to the uninterrupted run — on
// any worker count. Stateful drivers (e.g. mobility models with internal
// RNG) must persist or replay their own state; the snapshot covers
// everything inside SkyRan plus the world's UE positions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geo/path.hpp"
#include "geo/vec.hpp"
#include "rem/store.hpp"

namespace skyran::core {

struct EpochReport;
struct SkyRanConfig;

/// Fingerprint of the resume-relevant SkyRanConfig fields. Restoring under
/// a config with a different fingerprint would silently diverge from the
/// uninterrupted run, so restore() rejects it with geo::StateMismatchError.
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
  std::string rng_state;             ///< geo::Mt19937_64 text, the standard engine's format
  std::vector<geo::Vec2> last_estimates;  ///< localization fallback family
  std::vector<geo::Vec3> ue_positions;    ///< world UE truth at capture
  rem::RemStore store;               ///< positional-reuse REM store
  struct HistoryEntry {
    geo::Vec2 position;
    std::vector<geo::Path> trajectories;
  };
  std::vector<HistoryEntry> history;  ///< per-position trajectory history

  /// Serialize as one CRC-guarded envelope. Throws sim::CheckpointIoError
  /// when the stream fails.
  void save(std::ostream& os) const;

  /// Parse + verify. Throws geo::BinTruncatedError / BinCorruptError /
  /// BinVersionError; never returns a partially-filled snapshot. Every
  /// element count is checked against the bytes left in the payload before
  /// anything is allocated, so no count can surface as std::bad_alloc.
  static Snapshot load(std::istream& is);
};

}  // namespace skyran::core

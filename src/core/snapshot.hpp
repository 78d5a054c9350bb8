// Crash-safe checkpoint/restore for the epoch state machine. A Snapshot is
// the full between-epoch session state — epoch counter, RNG, REM store,
// trajectory histories, UAV pose/battery, last UE estimates, the world's UE
// positions — as the sealed payload of one CRC-guarded geo::binio envelope,
// bytes written by SkyRan::write_state and parsed by SkyRan::read_state.
// sim::GenerationStore persists generations of that
// envelope as `ckpt-<epoch>.skyc` files (write-tmp -> fsync ->
// atomic-rename -> fsync directory, previous generation retained), so a
// SIGKILL at any byte of a write can never corrupt the last good checkpoint:
//
//   store.save(sky.epochs_run(), bytes);  // what sky.snapshot().save() wrote
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
#include <utility>

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

/// The full between-epoch session state of one SkyRan, sealed: the SKYS
/// payload SkyRan::snapshot() wrote, which only SkyRan::restore() parses.
class Snapshot {
 public:
  /// v3 dropped v2's trailing per-UE service-load field; only v3 loads.
  static constexpr std::uint32_t kVersion = 3;

  /// Write the envelope. Throws sim::CheckpointIoError when the stream fails.
  void save(std::ostream& os) const;

  /// Check magic, version, length and CRC: geo::BinTruncatedError /
  /// BinCorruptError / BinVersionError. SkyRan::restore checks the fields.
  static Snapshot load(std::istream& is);

 private:
  friend class SkyRan;
  explicit Snapshot(std::string payload) : payload_(std::move(payload)) {}

  std::string payload_;
};

}  // namespace skyran::core

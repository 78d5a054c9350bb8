// Crash-safe generation files: the one checkpoint store for every resumable
// object. A SkyRan session writes `ckpt-<epoch>.skyc` (core::Snapshot), a
// campaign writes `camp-<hour>.skyd` (scenario::Campaign); both go through
// this class, which knows nothing about payload formats.
//
// save() writes `<prefix><generation><extension>.tmp`, fsyncs it (visiting
// the ckpt.mid_write crash point halfway through), visits ckpt.pre_rename,
// atomically renames, fsyncs the directory, then prunes the generations
// numbered below the new one to the newest kKeep - 1, plus stray temp files;
// generations numbered above it (another session's) are left alone. A
// SIGKILL at any byte leaves either the previous generations untouched or
// the new one fully durable — never a half-written visible file.
//
// restore_latest() is the newest-first fallback walk: it hands each
// generation's bytes to the caller's restore, and skips a generation whose
// restore throws geo::BinFormatError (bad bytes) or geo::StateMismatchError
// (valid bytes, wrong session). The restore must be all-or-nothing, so a
// skipped generation leaves the target as it was.
//
// EnvCheckpoints is how a shipped binary uses the store: one generation per
// completed step under $SKYRAN_CKPT_DIR, and a resume on start.
#pragma once

#include <filesystem>
#include <functional>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace skyran::sim {

/// Filesystem-level failure (mkdir/open/write/fsync/rename).
struct CheckpointIoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class GenerationStore {
 public:
  /// Generations retained after each save: the one just written, and the
  /// one before it to fall back to.
  static constexpr int kKeep = 2;

  /// Creates `dir` when missing. `prefix`/`extension` name the generation
  /// files (e.g. "ckpt-" / ".skyc"); generation numbers are zero-padded to
  /// eight digits so lexicographic file order equals numeric order. Several
  /// stores may share a directory when their names differ.
  /// Throws CheckpointIoError when the directory cannot be created.
  GenerationStore(std::filesystem::path dir, std::string prefix, std::string extension);

  /// Persist `bytes` as generation `generation` (>= 0). Returns the final
  /// path. Throws CheckpointIoError on filesystem failure.
  std::filesystem::path save(int generation, const std::string& bytes);

  /// Call `restore` on each generation's bytes, newest first, until one
  /// returns; returns that generation, or nullopt when every one was
  /// rejected (or none exists). Each rejection is recorded in last_errors().
  std::optional<int> restore_latest(const std::function<void(std::istream&)>& restore);

  /// Generation files present, oldest first.
  std::vector<std::filesystem::path> generations() const;

  /// Why each generation the last restore_latest() walk skipped was
  /// rejected, newest first: "<path>: <reason>".
  const std::vector<std::string>& last_errors() const { return last_errors_; }

 private:
  /// Generation number encoded in `path`'s filename, or -1 when the name
  /// does not match this store's prefix/extension scheme.
  int generation_of(const std::filesystem::path& path) const;

  std::filesystem::path dir_;
  std::string prefix_;
  std::string extension_;
  std::vector<std::string> last_errors_;
};

/// The checkpoints a shipped binary keeps for its one resumable object in
/// $SKYRAN_CKPT_DIR. Inert — every call a no-op — when that variable is
/// unset or empty.
class EnvCheckpoints {
 public:
  EnvCheckpoints(std::string prefix, std::string extension);

  /// Restore from the newest generation `restore` accepts. Reports each
  /// skipped generation and "resumed from generation <k>" on stderr, and
  /// returns k; returns 0 when nothing was restored.
  int resume(const std::function<void(std::istream&)>& restore);

  /// Save the bytes `write` streams as generation `generation`.
  void save(int generation, const std::function<void(std::ostream&)>& write);

 private:
  std::optional<GenerationStore> store_;
};

}  // namespace skyran::sim

#include "sim/generation_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "geo/binio.hpp"
#include "obs/obs.hpp"
#include "sim/crash_point.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace skyran::sim {

GenerationStore::GenerationStore(std::filesystem::path dir, std::string prefix,
                                 std::string extension)
    : dir_(std::move(dir)), prefix_(std::move(prefix)), extension_(std::move(extension)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw CheckpointIoError("GenerationStore: cannot create " + dir_.string());
}

namespace {

#if !defined(_WIN32)
/// Write `bytes` to `path` with fsync, visiting the mid-write crash point
/// halfway through so the harness can tear the file at a byte boundary.
void write_file_synced(const std::filesystem::path& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw CheckpointIoError("GenerationStore: cannot open " + path.string());
  const auto write_all = [fd, &path](const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        ::close(fd);
        throw CheckpointIoError("GenerationStore: write failed on " + path.string());
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  };
  const std::size_t half = bytes.size() / 2;
  write_all(bytes.data(), half);
  crash_point("ckpt.mid_write");
  write_all(bytes.data() + half, bytes.size() - half);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw CheckpointIoError("GenerationStore: fsync failed on " + path.string());
  }
  ::close(fd);
}

void sync_directory(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse directory fds
  ::fsync(fd);
  ::close(fd);
}
#else
void write_file_synced(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  const std::size_t half = bytes.size() / 2;
  os.write(bytes.data(), static_cast<std::streamsize>(half));
  crash_point("ckpt.mid_write");
  os.write(bytes.data() + half, static_cast<std::streamsize>(bytes.size() - half));
  os.flush();
  if (!os) throw CheckpointIoError("GenerationStore: write failed on " + path.string());
}

void sync_directory(const std::filesystem::path&) {}
#endif

}  // namespace

std::filesystem::path GenerationStore::save(int generation, const std::string& bytes) {
  SKYRAN_TRACE_SPAN("ckpt.save");
  char num[16];
  std::snprintf(num, sizeof(num), "%08d", generation);
  const std::filesystem::path final_path = dir_ / (prefix_ + num + extension_);
  const std::filesystem::path tmp_path = final_path.string() + ".tmp";
  write_file_synced(tmp_path, bytes);
  crash_point("ckpt.pre_rename");
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec)
    throw CheckpointIoError("GenerationStore: rename to " + final_path.string() + " failed: " +
                            ec.message());
  sync_directory(dir_);

  // Prune the generations numbered below this one to the newest kKeep - 1,
  // plus any stray temp files from older torn writes (never the temp we just
  // renamed away). Higher-numbered generations are another session's: left
  // for its restore walk to reject, never a reason to delete this one.
  std::vector<std::filesystem::path> older;
  for (const std::filesystem::path& p : generations())
    if (generation_of(p) < generation) older.push_back(p);
  for (std::size_t i = 0; i + (kKeep - 1) < older.size(); ++i) {
    std::filesystem::remove(older[i], ec);
    SKYRAN_COUNTER_INC("ckpt.pruned");
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp" && entry.path() != tmp_path)
      std::filesystem::remove(entry.path(), ec);
  }
  SKYRAN_COUNTER_INC("ckpt.saves");
  SKYRAN_GAUGE_SET("ckpt.bytes", static_cast<double>(bytes.size()));
  SKYRAN_GAUGE_SET("ckpt.generation", static_cast<double>(generation));
  return final_path;
}

std::optional<int> GenerationStore::restore_latest(
    const std::function<void(std::istream&)>& restore) {
  SKYRAN_TRACE_SPAN("ckpt.restore");
  last_errors_.clear();
  const std::vector<std::filesystem::path> gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const auto reject = [&](const char* why) {
      last_errors_.push_back(it->string() + ": " + why);
      SKYRAN_COUNTER_INC("ckpt.load_rejects");
    };
    std::ifstream is(*it, std::ios::binary);
    if (!is) {
      reject("cannot open");
      continue;
    }
    try {
      restore(is);
    } catch (const geo::BinFormatError& e) {
      reject(e.what());
      continue;
    } catch (const geo::StateMismatchError& e) {
      reject(e.what());
      continue;
    }
    SKYRAN_COUNTER_INC("ckpt.restores");
    if (it != gens.rbegin()) SKYRAN_COUNTER_INC("ckpt.fallbacks");
    return generation_of(*it);
  }
  return std::nullopt;
}

std::vector<std::filesystem::path> GenerationStore::generations() const {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (generation_of(entry.path()) >= 0) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());  // zero-padded generation: lexicographic == numeric
  return out;
}

int GenerationStore::generation_of(const std::filesystem::path& path) const {
  const std::string name = path.filename().string();
  if (name.size() != prefix_.size() + 8 + extension_.size()) return -1;
  if (name.rfind(prefix_, 0) != 0) return -1;
  if (name.compare(name.size() - extension_.size(), extension_.size(), extension_) != 0)
    return -1;
  int value = 0;
  for (std::size_t i = prefix_.size(); i < prefix_.size() + 8; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    value = value * 10 + (name[i] - '0');
  }
  return value;
}

EnvCheckpoints::EnvCheckpoints(std::string prefix, std::string extension) {
  if (const char* dir = std::getenv("SKYRAN_CKPT_DIR"); dir != nullptr && *dir != '\0')
    store_.emplace(dir, std::move(prefix), std::move(extension));
}

int EnvCheckpoints::resume(const std::function<void(std::istream&)>& restore) {
  if (!store_) return 0;
  const std::optional<int> generation = store_->restore_latest(restore);
  for (const std::string& why : store_->last_errors()) std::cerr << "skipped " << why << "\n";
  if (!generation) return 0;
  std::cerr << "resumed from generation " << *generation << "\n";
  return *generation;
}

void EnvCheckpoints::save(int generation, const std::function<void(std::ostream&)>& write) {
  if (!store_) return;
  std::ostringstream bytes;
  write(bytes);
  store_->save(generation, std::move(bytes).str());
}

}  // namespace skyran::sim

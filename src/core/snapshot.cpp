#include "core/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/config.hpp"
#include "core/skyran.hpp"
#include "geo/binio.hpp"
#include "geo/hash.hpp"
#include "obs/obs.hpp"
#include "sim/crash_point.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace skyran::core {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'Y', 'S'};

}  // namespace

std::uint64_t config_digest(const SkyRanConfig& c) {
  geo::Fnv1a h;
  h.pod(c.rem_cell_m);
  h.pod(c.epoch_drop_threshold);
  h.pod(c.reuse_radius_m);
  h.pod(c.measurement_budget_m);
  h.pod(static_cast<std::int32_t>(c.localization_mode));
  h.pod(c.injected_error_m);
  h.pod(c.start_altitude_m);
  h.pod(c.min_altitude_m);
  h.pod(c.altitude_step_m);
  h.pod(c.cruise_mps);
  h.pod(c.battery_reserve_fraction);
  h.pod(c.battery.capacity_wh);
  h.pod(c.battery.hover_power_w);
  h.pod(c.battery.forward_power_w_per_mps);
  h.pod(c.planner.k_min);
  h.pod(c.planner.k_max);
  h.pod(c.idw.k_neighbors);
  h.pod(c.idw.power);
  h.pod(c.idw.max_radius_m);
  h.pod(c.idw.background_blend_m);
  h.pod(c.localizer.flight_length_m);
  h.pod(c.localizer.flight_leg_m);
  h.pod(c.localizer.flight_altitude_m);
  h.pod(c.localizer.cruise_mps);
  h.pod(c.localizer.gps_sigma_m);
  h.pod(c.measurement.report_rate_hz);
  h.pod(c.measurement.fading_sigma_db);
  h.pod(static_cast<std::int32_t>(c.objective));
  h.pod(c.service.ttis);
  h.pod(static_cast<std::int32_t>(c.service.ue_traffic.model));
  h.pod(c.service.ue_traffic.rate_bps);
  h.pod(c.faults.seed);
  h.pod(static_cast<std::uint64_t>(c.faults.windows.size()));
  for (const sim::FaultWindow& w : c.faults.windows) {
    h.pod(static_cast<std::int32_t>(w.kind));
    h.pod(w.start_s);
    h.pod(w.end_s);
    h.pod(w.magnitude);
    h.pod(w.heading_rad);
    h.pod(w.cell);
  }
  // threads intentionally excluded: serial == N-worker bit-identity makes
  // the worker count resume-neutral.
  return h.value();
}

std::uint64_t report_digest(const EpochReport& r) {
  geo::Fnv1a h;
  h.pod(r.epoch);
  h.pod(static_cast<std::uint64_t>(r.estimated_ue_positions.size()));
  h.bytes(r.estimated_ue_positions.data(), r.estimated_ue_positions.size() * sizeof(geo::Vec2));
  h.pod(static_cast<std::uint64_t>(r.reused_rem.size()));
  for (const bool b : r.reused_rem) h.pod(static_cast<std::uint8_t>(b));
  h.pod(r.localization_flight_m);
  h.pod(r.altitude_flight_m);
  h.pod(r.measurement_flight_m);
  h.pod(r.total_flight_m);
  h.pod(r.flight_time_s);
  h.pod(r.altitude_m);
  h.pod(r.position);
  h.pod(r.predicted_objective_snr_db);
  h.pod(r.served_mean_throughput_bps);
  h.pod(r.planned_k);
  h.pod(r.info_to_cost);
  h.pod(r.measurement_rounds);
  const lte::TrafficPlaneReport& t = r.traffic;
  h.pod(t.ttis);
  h.pod(static_cast<std::uint64_t>(t.ues));
  h.pod(t.scheduled_ue_ttis);
  h.pod(t.offered_bits);
  h.pod(t.served_bits);
  h.pod(t.dropped_bits);
  h.pod(t.aggregate_throughput_bps);
  h.pod(t.fairness_jain);
  h.pod(t.p50_throughput_bps);
  h.pod(t.p90_throughput_bps);
  h.pod(t.p99_throughput_bps);
  h.pod(t.p50_delay_ms);
  h.pod(t.p90_delay_ms);
  h.pod(t.p99_delay_ms);
  h.pod(t.harq_first_tx);
  h.pod(t.harq_retx);
  h.pod(t.harq_drops);
  h.pod(t.harq_residual_bler);
  h.pod(t.mbsfn_subframes);
  h.pod(t.multicast_served_bits);
  h.pod(t.multicast_backlog_bits);
  h.pod(static_cast<std::uint8_t>(r.degraded));
  return h.value();
}

void Snapshot::save(std::ostream& os) const {
  geo::BinWriter w;
  w.pod(seed);
  w.pod(config_fingerprint);
  w.pod(static_cast<std::int32_t>(epoch));
  w.pod(position);
  w.pod(altitude_m);
  w.pod(static_cast<std::uint8_t>(altitude_known));
  w.pod(total_flight_m);
  w.pod(throughput_at_placement_bps);
  w.pod(battery_remaining_wh);
  w.str(rng_state);
  w.pod(static_cast<std::uint64_t>(last_estimates.size()));
  w.bytes(last_estimates.data(), last_estimates.size() * sizeof(geo::Vec2));
  w.pod(static_cast<std::uint64_t>(ue_positions.size()));
  w.bytes(ue_positions.data(), ue_positions.size() * sizeof(geo::Vec3));
  {
    std::ostringstream store_bytes;
    store.save(store_bytes);
    w.str(std::move(store_bytes).str());
  }
  w.pod(static_cast<std::uint64_t>(history.size()));
  for (const HistoryEntry& e : history) {
    w.pod(e.position);
    w.pod(static_cast<std::uint64_t>(e.trajectories.size()));
    for (const geo::Path& p : e.trajectories) {
      w.pod(static_cast<std::uint64_t>(p.points().size()));
      w.bytes(p.points().data(), p.points().size() * sizeof(geo::Vec2));
    }
  }
  geo::write_envelope(os, kMagic, kVersion, w);
  if (!os) throw SnapshotIoError("Snapshot::save: write failed");
}

Snapshot Snapshot::load(std::istream& is) {
  const geo::Envelope env =
      geo::read_envelope(is, kMagic, kVersion, kVersion, "Snapshot::load");
  geo::BinReader r(env.payload);
  Snapshot s;
  s.seed = r.pod<std::uint64_t>();
  s.config_fingerprint = r.pod<std::uint64_t>();
  s.epoch = r.pod<std::int32_t>();
  s.position = r.pod<geo::Vec2>();
  s.altitude_m = r.pod<double>();
  s.altitude_known = r.pod<std::uint8_t>() != 0;
  s.total_flight_m = r.pod<double>();
  s.throughput_at_placement_bps = r.pod<double>();
  s.battery_remaining_wh = r.pod<double>();
  s.rng_state = r.str();
  s.last_estimates.resize(r.count(sizeof(geo::Vec2)));
  for (geo::Vec2& v : s.last_estimates) v = r.pod<geo::Vec2>();
  s.ue_positions.resize(r.count(sizeof(geo::Vec3)));
  for (geo::Vec3& v : s.ue_positions) v = r.pod<geo::Vec3>();
  {
    std::istringstream store_bytes(r.str());
    s.store = rem::RemStore::load(store_bytes);
  }
  // Smallest encodings: a history entry is a position plus a path count; a
  // path is at least its point count.
  const std::size_t n_history = r.count(sizeof(geo::Vec2) + sizeof(std::uint64_t));
  s.history.reserve(n_history);
  for (std::size_t i = 0; i < n_history; ++i) {
    HistoryEntry e;
    e.position = r.pod<geo::Vec2>();
    const std::size_t n_paths = r.count(sizeof(std::uint64_t));
    e.trajectories.reserve(n_paths);
    for (std::size_t p = 0; p < n_paths; ++p) {
      std::vector<geo::Vec2> pts(r.count(sizeof(geo::Vec2)));
      for (geo::Vec2& v : pts) v = r.pod<geo::Vec2>();
      e.trajectories.emplace_back(std::move(pts));
    }
    s.history.push_back(std::move(e));
  }
  if (!r.done()) throw geo::BinCorruptError("Snapshot::load: trailing bytes after last field");
  return s;
}

// ---------------------------------------------------------- SnapshotManager

GenerationStore::GenerationStore(std::filesystem::path dir, std::string prefix,
                                 std::string extension, int keep)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      extension_(std::move(extension)),
      keep_(std::max(keep, 2)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw SnapshotIoError("GenerationStore: cannot create " + dir_.string());
}

namespace {

#if !defined(_WIN32)
/// Write `bytes` to `path` with fsync, visiting the mid-write crash point
/// halfway through so the harness can tear the file at a byte boundary.
void write_file_synced(const std::filesystem::path& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw SnapshotIoError("GenerationStore: cannot open " + path.string());
  const auto write_all = [fd, &path](const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        ::close(fd);
        throw SnapshotIoError("GenerationStore: write failed on " + path.string());
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  };
  const std::size_t half = bytes.size() / 2;
  write_all(bytes.data(), half);
  sim::crash_point("ckpt.mid_write");
  write_all(bytes.data() + half, bytes.size() - half);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw SnapshotIoError("GenerationStore: fsync failed on " + path.string());
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
  sim::crash_point("ckpt.mid_write");
  os.write(bytes.data() + half, static_cast<std::streamsize>(bytes.size() - half));
  os.flush();
  if (!os) throw SnapshotIoError("GenerationStore: write failed on " + path.string());
}

void sync_directory(const std::filesystem::path&) {}
#endif

}  // namespace

std::filesystem::path GenerationStore::save(int generation, const std::string& bytes) {
  char num[16];
  std::snprintf(num, sizeof(num), "%08d", generation);
  const std::filesystem::path final_path = dir_ / (prefix_ + num + extension_);
  const std::filesystem::path tmp_path = final_path.string() + ".tmp";
  write_file_synced(tmp_path, bytes);
  sim::crash_point("ckpt.pre_rename");
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec)
    throw SnapshotIoError("GenerationStore: rename to " + final_path.string() + " failed: " +
                          ec.message());
  sync_directory(dir_);

  // Prune to the newest keep_ generations plus any stray temp files from
  // older torn writes (never the temp we just renamed away).
  std::vector<std::filesystem::path> gens = generations();
  while (gens.size() > static_cast<std::size_t>(keep_)) {
    std::filesystem::remove(gens.front(), ec);
    gens.erase(gens.begin());
    SKYRAN_COUNTER_INC("ckpt.pruned");
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp" && entry.path() != tmp_path)
      std::filesystem::remove(entry.path(), ec);
  }
  return final_path;
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

SnapshotManager::SnapshotManager(std::filesystem::path dir, int keep)
    : store_(std::move(dir), "ckpt-", ".skyc", keep) {}

std::filesystem::path SnapshotManager::save(const Snapshot& snapshot) {
  SKYRAN_TRACE_SPAN("ckpt.save");
  std::ostringstream buf;
  snapshot.save(buf);
  const std::string bytes = std::move(buf).str();
  const std::filesystem::path final_path = store_.save(snapshot.epoch, bytes);
  SKYRAN_COUNTER_INC("ckpt.saves");
  SKYRAN_GAUGE_SET("ckpt.bytes", static_cast<double>(bytes.size()));
  SKYRAN_GAUGE_SET("ckpt.generation", static_cast<double>(snapshot.epoch));
  return final_path;
}

std::vector<std::filesystem::path> SnapshotManager::generations() const {
  return store_.generations();
}

std::optional<Snapshot> SnapshotManager::load_latest() {
  SKYRAN_TRACE_SPAN("ckpt.restore");
  last_errors_.clear();
  std::vector<std::filesystem::path> gens = store_.generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    std::ifstream is(*it, std::ios::binary);
    if (!is) {
      last_errors_.push_back(it->string() + ": cannot open");
      SKYRAN_COUNTER_INC("ckpt.load_rejects");
      continue;
    }
    try {
      Snapshot s = Snapshot::load(is);
      SKYRAN_COUNTER_INC("ckpt.restores");
      if (it != gens.rbegin()) SKYRAN_COUNTER_INC("ckpt.fallbacks");
      return s;
    } catch (const geo::BinFormatError& e) {
      last_errors_.push_back(it->string() + ": " + e.what());
      SKYRAN_COUNTER_INC("ckpt.load_rejects");
    } catch (const SnapshotError& e) {
      last_errors_.push_back(it->string() + ": " + e.what());
      SKYRAN_COUNTER_INC("ckpt.load_rejects");
    }
  }
  return std::nullopt;
}

}  // namespace skyran::core

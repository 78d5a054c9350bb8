// Fleet-layer ablation: a 16-cell UAV RAN over 10^5 UEs — the SINR measure
// phase (n_ues x n_cells RSRP slab), A3 attachment/handover sweep, per-cell
// traffic planes and the closed-loop CIO steering — timed serial vs
// 8-worker, with the end-state hashes compared in-bench (the repo's serial
// == N-worker bit-identity contract). A second scenario pair runs the
// documented hot-spot: one saturated cell next to an idle one, steering off
// vs on, reporting the hottest cell's demand-based PRB utilization and the
// handover/ping-pong counts (steering must drain the hot cell; ping-pongs
// must stay at zero under the 0.25 dB-step structural bound, docs/FLEET.md).
//
// Not a google-benchmark binary: like micro_traffic it emits one
// machine-readable JSON line per scenario for tools/bench_snapshot.py.
//
// Usage: ablation_fleet [ues] [epochs] [ttis_per_epoch]
//        (default 100000 UEs, 3 epochs, 50 TTIs/epoch)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "core/thread_pool.hpp"
#include "fleet/fleet.hpp"
#include "obs/env_session.hpp"
#include "rf/channel.hpp"

namespace skyran::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCellsPerSide = 4;  // 16 cells
constexpr double kAreaSide = 1200.0;
constexpr double kAltitude = 60.0;

const rf::FsplChannel& channel() {
  static const rf::FsplChannel fspl(2.6e9);
  return fspl;
}

// splitmix64-style [0, 1) stream for deterministic UE deployment.
double unit_noise(std::uint64_t i, std::uint64_t salt) {
  std::uint64_t x = i * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) / 9007199254740992.0;
}

fleet::FleetConfig base_config(int ttis_per_epoch) {
  fleet::FleetConfig cfg;
  cfg.seed = 0xF1EE7;
  cfg.ttis_per_epoch = ttis_per_epoch;
  cfg.steering.period_epochs = 1;
  cfg.steering.step_db = 0.25;
  cfg.a3.time_to_trigger_epochs = 1;
  return cfg;
}

/// 16-cell grid fleet with `ues` pseudo-randomly deployed CBR UEs.
fleet::Fleet make_grid_fleet(std::size_t ues, int ttis_per_epoch, int threads) {
  fleet::FleetConfig cfg = base_config(ttis_per_epoch);
  cfg.threads = threads;
  fleet::Fleet f(cfg, channel());
  const double pitch = kAreaSide / kCellsPerSide;
  for (int iy = 0; iy < kCellsPerSide; ++iy)
    for (int ix = 0; ix < kCellsPerSide; ++ix)
      f.add_cell({pitch * (ix + 0.5), pitch * (iy + 0.5), kAltitude});
  lte::TrafficSpec spec;
  spec.model = lte::TrafficModel::kCbr;
  for (std::size_t i = 0; i < ues; ++i) {
    spec.rate_bps = 5e3 + 5e3 * static_cast<double>(i % 4);
    f.add_ue({kAreaSide * unit_noise(i, 11), kAreaSide * unit_noise(i, 23), 1.5}, spec);
  }
  return f;
}

/// The documented hot-spot pair: a clustered cell next to an idle one
/// (same scenario family as tests/test_fleet.cpp, scaled up).
fleet::Fleet make_hotspot_fleet(int ttis_per_epoch, int threads, bool steering_on) {
  fleet::FleetConfig cfg = base_config(ttis_per_epoch);
  cfg.threads = threads;
  cfg.steering.enabled = steering_on;
  fleet::Fleet f(cfg, channel());
  f.add_cell({0.0, 0.0, kAltitude});
  f.add_cell({300.0, 0.0, kAltitude});
  lte::TrafficSpec spec;
  spec.model = lte::TrafficModel::kCbr;
  spec.rate_bps = 3e5;
  for (int i = 0; i < 24; ++i) f.add_ue({60.0 + 3.3 * i, -40.0 + 3.5 * i, 1.5}, spec);
  spec.rate_bps = 1e5;
  for (int i = 0; i < 4; ++i) f.add_ue({280.0 + 5.0 * i, 10.0 * i, 1.5}, spec);
  return f;
}

struct RunResult {
  double ms = 0.0;
  std::uint64_t hash = 0;
  fleet::FleetEpochReport last;
  std::uint64_t handovers = 0;
  std::uint64_t pingpongs = 0;
};

template <typename MakeFleet>
RunResult run_campaign(MakeFleet&& make, int epochs) {
  fleet::Fleet f = make();
  RunResult r;
  const auto t0 = Clock::now();
  for (int e = 0; e < epochs; ++e) r.last = f.run_epoch();
  const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
  r.ms = dt.count();
  r.hash = f.state_hash();
  r.handovers = f.total_handovers();
  r.pingpongs = f.total_pingpongs();
  return r;
}

}  // namespace
}  // namespace skyran::bench

int main(int argc, char** argv) {
  using namespace skyran;
  using namespace skyran::bench;

  const std::size_t ues = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 100000;
  const int epochs = argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;
  const int ttis = argc > 3 ? std::max(1, std::atoi(argv[3])) : 50;

  // 16 cells x 10^5 UEs: serial vs 8-worker, hashes compared in-bench.
  {
    const RunResult serial =
        run_campaign([&] { return make_grid_fleet(ues, ttis, /*threads=*/1); }, epochs);
    const RunResult parallel =
        run_campaign([&] { return make_grid_fleet(ues, ttis, /*threads=*/8); }, epochs);
    const bool equal = serial.hash == parallel.hash;
    const double ue_epochs = static_cast<double>(ues) * epochs;
    std::printf(
        "{\"bench\":\"ablation_fleet\",\"kind\":\"scenario\",\"scenario\":\"grid_16c\","
        "\"ues\":%zu,\"ttis\":%d,\"epochs\":%d,\"cells\":%d,"
        "\"serial_ms\":%.3f,\"parallel_ms\":%.3f,\"ue_epochs_per_sec\":%.0f,"
        "\"handovers\":%llu,\"max_prb_util\":%.4f,\"mean_sinr_db\":%.3f,"
        "\"equal\":%s}\n",
        ues, ttis, epochs, kCellsPerSide * kCellsPerSide, serial.ms, parallel.ms,
        ue_epochs / (parallel.ms * 1e-3), static_cast<unsigned long long>(parallel.handovers),
        parallel.last.max_prb_util, parallel.last.mean_sinr_db, equal ? "true" : "false");
    std::fflush(stdout);
  }

  // Hot-spot pair: steering off vs on over 20 epochs (enough for the 0.25 dB
  // CIO ramp to drain the hot cell), each verified serial vs 8-worker.
  for (const bool steering_on : {false, true}) {
    const int hot_epochs = 20;
    const RunResult serial = run_campaign(
        [&] { return make_hotspot_fleet(ttis, /*threads=*/1, steering_on); }, hot_epochs);
    const RunResult parallel = run_campaign(
        [&] { return make_hotspot_fleet(ttis, /*threads=*/8, steering_on); }, hot_epochs);
    const bool equal = serial.hash == parallel.hash;
    std::printf(
        "{\"bench\":\"ablation_fleet\",\"kind\":\"scenario\",\"scenario\":\"hotspot_steer_%s\","
        "\"ues\":28,\"ttis\":%d,\"epochs\":%d,\"cells\":2,"
        "\"serial_ms\":%.3f,\"parallel_ms\":%.3f,"
        "\"handovers\":%llu,\"pingpongs\":%llu,\"max_prb_util\":%.4f,"
        "\"mean_prb_util\":%.4f,\"equal\":%s}\n",
        steering_on ? "on" : "off", ttis, hot_epochs, serial.ms, parallel.ms,
        static_cast<unsigned long long>(parallel.handovers),
        static_cast<unsigned long long>(parallel.pingpongs), parallel.last.max_prb_util,
        parallel.last.mean_prb_util, equal ? "true" : "false");
    std::fflush(stdout);
  }
  return 0;
}

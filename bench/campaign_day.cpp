// Day-in-the-life campaign bench: the scenario::Campaign engine end to end —
// diurnal traffic, commuter mobility, weather fronts, flash crowds and
// battery-swap logistics over a 16-cell fleet — timed serial vs 8-worker
// with the whole-campaign report digests compared in-bench (the repo's
// serial == N-worker bit-identity contract, now at campaign scope).
//
// Not a google-benchmark binary: emits one machine-readable JSON line per
// scenario for tools/bench_snapshot.py (snapshot: BENCH_campaign.json).
//
// Usage: campaign_day [ues] [hours] [epochs_per_hour] [ttis_per_epoch]
//        (default 8000 UEs, 24 h, 2 epochs/hour, 40 TTIs/epoch)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "obs/env_session.hpp"
#include "scenario/campaign.hpp"

namespace skyran::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCellsPerSide = 4;  // 16 cells

scenario::CampaignConfig day_config(std::size_t ues, int hours, int epochs_per_hour,
                                    int ttis, int threads) {
  scenario::CampaignConfig cfg = scenario::example_day_config(0xDA7ULL, ues, kCellsPerSide);
  cfg.hours = hours;
  cfg.epochs_per_hour = epochs_per_hour;
  cfg.fleet.ttis_per_epoch = ttis;
  cfg.threads = threads;
  return cfg;
}

struct RunResult {
  double ms = 0.0;
  std::uint64_t digest = 0;
  scenario::CampaignReport report;
};

RunResult run_campaign(const scenario::CampaignConfig& cfg) {
  scenario::Campaign campaign(cfg);
  RunResult r;
  const auto t0 = Clock::now();
  r.report = campaign.run();
  const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
  r.ms = dt.count();
  r.digest = scenario::campaign_digest(r.report);
  return r;
}

void emit_row(const char* name, const scenario::CampaignConfig& cfg, const RunResult& serial,
              const RunResult& parallel) {
  const bool equal = serial.digest == parallel.digest;
  const scenario::CampaignReport& rep = parallel.report;
  const double ue_hours = static_cast<double>(rep.n_ues) * rep.hours;
  std::printf(
      "{\"bench\":\"campaign_day\",\"kind\":\"scenario\",\"scenario\":\"%s\","
      "\"ues\":%zu,\"hours\":%d,\"cells\":%zu,\"ttis\":%d,"
      "\"serial_ms\":%.3f,\"parallel_ms\":%.3f,\"ue_hours_per_sec\":%.0f,"
      "\"availability\":%.4f,\"energy_wh_per_gbit\":%.1f,"
      "\"handovers\":%llu,\"swaps\":%llu,\"equal\":%s}\n",
      name, cfg.n_ues, cfg.hours, rep.n_cells, cfg.fleet.ttis_per_epoch, serial.ms,
      parallel.ms, ue_hours / (parallel.ms * 1e-3), rep.availability,
      rep.energy_wh_per_gbit, static_cast<unsigned long long>(rep.handovers),
      static_cast<unsigned long long>(rep.swaps), equal ? "true" : "false");
  std::fflush(stdout);
}

}  // namespace
}  // namespace skyran::bench

int main(int argc, char** argv) {
  using namespace skyran;
  using namespace skyran::bench;

  const std::size_t ues = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 8000;
  const int hours = argc > 2 ? std::max(1, std::atoi(argv[2])) : 24;
  const int epochs_per_hour = argc > 3 ? std::max(1, std::atoi(argv[3])) : 2;
  const int ttis = argc > 4 ? std::max(1, std::atoi(argv[4])) : 40;

  // Full day at fleet scale: serial vs 8-worker, digests compared in-bench.
  {
    const RunResult serial = run_campaign(day_config(ues, hours, epochs_per_hour, ttis, 1));
    const RunResult parallel = run_campaign(day_config(ues, hours, epochs_per_hour, ttis, 8));
    emit_row("day", day_config(ues, hours, epochs_per_hour, ttis, 8), serial, parallel);
  }

  // Fixed mini slice (population- and horizon-independent of argv): a cheap
  // always-on row so snapshot checks keep a stable reference even when the
  // big row is re-captured at a different scale.
  {
    const scenario::CampaignConfig mini = day_config(400, 2, 2, ttis, 1);
    scenario::CampaignConfig mini8 = mini;
    mini8.threads = 8;
    const RunResult serial = run_campaign(mini);
    const RunResult parallel = run_campaign(mini8);
    emit_row("mini_2h", mini, serial, parallel);
  }
  return 0;
}

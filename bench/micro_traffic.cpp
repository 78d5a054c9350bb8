// Traffic-plane throughput: how many UE-TTIs/sec the batched SoA MAC
// sustains at massive UE counts, per scheduling policy and with the adaptive
// MBSFN split on, plus one fleet cell epoch (`pf_cell_epoch`: 500 UEs in the
// campaign's CBR / bursty / video mix over 40 TTIs, the plane
// fleet::Fleet::phase_serve builds per cell and epoch). A plane runs
// serially, so each scenario times one fresh plane's run per repetition
// and reports the median (`plane_ms`) and its interquartile range as a
// fraction of that median (`iqr_frac`), as micro_parallel does. The cell
// epoch row has a fixed shape and runs 100 planes per repetition, since one
// takes well under a millisecond. The plane's serial == N-worker identity
// is checked by test_traffic_plane. Not a google-benchmark binary: like
// micro_parallel and micro_rem it emits one machine-readable JSON line per
// scenario.
//
// Usage: micro_traffic [ues] [ttis] [reps]   (default 100000 UEs, 500 TTIs,
// 1 repetition; ues and ttis size the massive-UE rows)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "lte/traffic_plane.hpp"
#include "obs/env_session.hpp"
#include "timing.hpp"

namespace skyran::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Scenario {
  const char* name;
  lte::SchedulerPolicy policy;
  bool mbsfn;
  bool cell_epoch;  ///< the fixed fleet cell-epoch shape, not the CLI's
};

constexpr std::size_t kCellUes = 500;
constexpr int kCellTtis = 40;
constexpr int kCellPlanesPerRep = 100;

lte::TrafficPlane make_plane(const Scenario& s, std::size_t ues) {
  lte::TrafficPlaneConfig cfg;
  cfg.policy = s.policy;
  cfg.seed = 9001;
  if (s.mbsfn) {
    cfg.adaptive_mbsfn = true;
    cfg.multicast_rate_bps = 4e6;
  }
  lte::TrafficPlane plane(cfg);
  if (s.cell_epoch) {
    // scenario::Campaign's mix: 55% CBR, 25% bursty, 20% video.
    for (std::size_t i = 0; i < ues; ++i) {
      lte::TrafficSpec spec;
      const std::size_t m = i % 20;
      spec.model = m < 11 ? lte::TrafficModel::kCbr
                   : m < 16 ? lte::TrafficModel::kBurstyOnOff
                            : lte::TrafficModel::kVideo;
      spec.rate_bps = 2e5 + 4e3 * static_cast<double>((i * 37) % 100);
      plane.add_ue(static_cast<std::uint32_t>(1 + i),
                   -8.0 + 0.07 * static_cast<double>((i * 53) % 500), spec);
    }
    return plane;
  }
  const lte::TrafficModel models[] = {lte::TrafficModel::kFullBuffer, lte::TrafficModel::kCbr,
                                      lte::TrafficModel::kBurstyOnOff, lte::TrafficModel::kVideo};
  for (std::size_t i = 0; i < ues; ++i) {
    lte::TrafficSpec spec;
    spec.model = models[i % 4];
    spec.rate_bps = 2e5 + 1e5 * static_cast<double>(i % 4);
    spec.multicast_subscriber = s.mbsfn && i % 64 == 0;
    plane.add_ue(static_cast<std::uint32_t>(61 + i), -5.0 + static_cast<double>(i % 36),
                 spec);
  }
  return plane;
}

struct RunResult {
  Timing timing;
  lte::TrafficPlaneReport report;
};

RunResult run_reps(const Scenario& s, std::size_t ues, int ttis, int reps) {
  RunResult out;
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    lte::TrafficPlane plane = make_plane(s, ues);
    const auto t0 = Clock::now();
    plane.run_ttis(ttis);
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    ms.push_back(dt.count());
    out.report = plane.report();
  }
  out.timing = median_iqr(std::move(ms));
  return out;
}

}  // namespace
}  // namespace skyran::bench

int main(int argc, char** argv) {
  using namespace skyran;
  using namespace skyran::bench;

  const std::size_t cli_ues = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 100000;
  const int cli_ttis = argc > 2 ? std::max(1, std::atoi(argv[2])) : 500;
  const int cli_reps = argc > 3 ? std::max(1, std::atoi(argv[3])) : 1;

  const Scenario scenarios[] = {
      {"rr_unicast", lte::SchedulerPolicy::kRoundRobin, false, false},
      {"pf_unicast", lte::SchedulerPolicy::kProportionalFair, false, false},
      {"pf_mbsfn", lte::SchedulerPolicy::kProportionalFair, true, false},
      {"pf_cell_epoch", lte::SchedulerPolicy::kProportionalFair, false, true},
  };

  for (const Scenario& s : scenarios) {
    const std::size_t ues = s.cell_epoch ? kCellUes : cli_ues;
    const int ttis = s.cell_epoch ? kCellTtis : cli_ttis;
    const int reps = s.cell_epoch ? cli_reps * kCellPlanesPerRep : cli_reps;
    const RunResult run = run_reps(s, ues, ttis, reps);
    const double ue_ttis = static_cast<double>(ues) * static_cast<double>(ttis);
    std::printf(
        "{\"bench\":\"micro_traffic\",\"kind\":\"plane\",\"scenario\":\"%s\","
        "\"ues\":%zu,\"ttis\":%d,\"reps\":%d,\"plane_ms\":%.3f,\"iqr_frac\":%.3f,"
        "\"ue_ttis_per_sec\":%.0f,\"served_gbit\":%.3f,\"harq_retx\":%llu,"
        "\"harq_drops\":%llu,\"mbsfn_subframes\":%d,\"fairness_jain\":%.4f}\n",
        s.name, ues, ttis, reps, run.timing.median_ms, run.timing.iqr_frac,
        ue_ttis / (run.timing.median_ms * 1e-3),
        run.report.served_bits / 1e9, static_cast<unsigned long long>(run.report.harq_retx),
        static_cast<unsigned long long>(run.report.harq_drops), run.report.mbsfn_subframes,
        run.report.fairness_jain);
    std::fflush(stdout);
  }
  return 0;
}

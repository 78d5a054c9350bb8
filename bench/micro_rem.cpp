// Full re-raster vs the live bank's per-UE-cached REM re-estimation across
// a multi-round measurement epoch. Each round deposits a tour's worth of SNR
// samples into two rem::RemBanks: a twin that is never estimated, and the
// live bank. The full arm times the first estimate_all of a copy of the twin
// (a bank's first estimate_all re-rasters every UE); the live arm (the
// `incremental_ms` field) times the live bank's estimate_all, which
// re-rasters each UE deposited into since the last call and serves the rest
// from its cached slab. Every round here deposits into every UE, so rounds
// run at about 1x; the cache_hit row (a second estimate_all with nothing
// new) is where the cache pays. The two results must stay bit-for-bit
// identical. Not a google-benchmark binary: like micro_parallel it emits one
// machine-readable JSON line per round.
//
// Usage: micro_rem [repetitions]   (default 5; best-of is reported)
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "geo/mt19937.hpp"
#include "geo/path.hpp"
#include "geo/rect.hpp"
#include "obs/env_session.hpp"
#include "rem/bank.hpp"
#include "rf/channel.hpp"

namespace skyran::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Bit-identity of every UE's cached estimate slab.
bool banks_equal(const rem::RemBank& a, const rem::RemBank& b) {
  for (std::size_t i = 0; i < a.ue_count(); ++i) {
    const geo::FieldView<const double> x = a.estimate(i);
    const geo::FieldView<const double> y = b.estimate(i);
    for (std::size_t j = 0; j < x.size(); ++j)
      if (x[j] != y[j]) return false;
  }
  return a.ue_count() == b.ue_count();
}

/// Best-of-`reps` time of estimate_all on fresh copies of `bank` (copies
/// made outside the timed region); returns the last estimated copy.
rem::RemBank time_estimate_all(const rem::RemBank& bank, int reps,
                               const rem::IdwParams& params, double& best_ms) {
  std::vector<rem::RemBank> copies(static_cast<std::size_t>(reps), bank);
  best_ms = 1e300;
  for (rem::RemBank& copy : copies) {
    const auto t0 = Clock::now();
    copy.estimate_all(params);
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    if (dt.count() < best_ms) best_ms = dt.count();
  }
  return std::move(copies.back());
}

struct Deposit {
  geo::Vec2 at;
  double snr_db;
};

/// One measurement round: samples every metre along a random 3-waypoint
/// tour — the density run_measurement_flight deposits (100 Hz reports at
/// cruise speed land well under a metre apart; one per metre is conservative).
std::vector<Deposit> tour_deposits(const geo::Rect& area, geo::Mt19937_64& rng) {
  std::uniform_real_distribution<double> ux(area.min.x, area.max.x);
  std::uniform_real_distribution<double> uy(area.min.y, area.max.y);
  std::normal_distribution<double> noise(0.0, 1.8);
  geo::Path tour;
  for (int w = 0; w < 3; ++w) tour.push_back({ux(rng), uy(rng)});
  std::vector<Deposit> out;
  const double len = tour.length();
  for (double s = 0.0; s <= len; s += 1.0) {
    const geo::Vec2 p = tour.point_at(s);
    // Synthetic smooth field + fading: value content is irrelevant to the
    // timing, it only has to be deterministic per (point, draw).
    out.push_back({p, 10.0 - 0.04 * p.dist(area.center()) + noise(rng)});
  }
  return out;
}

}  // namespace
}  // namespace skyran::bench

int main(int argc, char** argv) {
  using namespace skyran;
  using namespace skyran::bench;

  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;
  const geo::Rect area{{0.0, 0.0}, {400.0, 400.0}};
  const double cell = 4.0;
  const double altitude = 60.0;
  const int rounds = 6;
  const rf::FsplChannel fspl(2.6e9);
  const rem::IdwParams params;

  geo::Mt19937_64 rng(42);
  std::uniform_real_distribution<double> ux(area.min.x, area.max.x);
  std::uniform_real_distribution<double> uy(area.min.y, area.max.y);
  std::vector<geo::Vec3> ues;
  for (int i = 0; i < 6; ++i) ues.push_back({ux(rng), uy(rng), 1.5});

  // `twin` gets every deposit but is never estimated itself.
  rem::RemBank twin(area, cell, altitude);
  for (const geo::Vec3& ue : ues) twin.seed_from_model(twin.add_ue(ue), fspl, rf::LinkBudget{});
  rem::RemBank bank = twin;

  for (int round = 0; round < rounds; ++round) {
    const std::vector<Deposit> deposits = tour_deposits(area, rng);
    for (const Deposit& d : deposits) {
      for (std::size_t i = 0; i < ues.size(); ++i) {
        // Per-UE offset keeps the six maps distinct without extra RNG draws.
        const double snr = d.snr_db - 1.5 * static_cast<double>(i);
        twin.add_measurement(i, d.at, snr);
        bank.add_measurement(i, d.at, snr);
      }
    }

    // Full re-estimate: the first estimate_all of a never-estimated copy.
    double full_ms = 0.0;
    const rem::RemBank full = time_estimate_all(twin, reps, params, full_ms);

    // Live bank: each rep starts from an identical pre-estimate copy of it.
    double incremental_ms = 0.0;
    time_estimate_all(bank, reps, params, incremental_ms);

    bank.estimate_all(params);  // advance the real bank for the next round
    const rem::RemBank::EstimateStats& stats = bank.last_estimate_stats();
    const bool equal = banks_equal(full, bank);

    std::printf(
        "{\"bench\":\"micro_rem\",\"kind\":\"round\",\"round\":%d,\"ues\":%zu,"
        "\"cells\":%zu,\"deposits\":%zu,\"full_ms\":%.3f,\"incremental_ms\":%.3f,"
        "\"speedup\":%.3f,\"dirty_fraction\":%.4f,\"equal\":%s}\n",
        round, ues.size(), stats.cells_total, deposits.size(), full_ms, incremental_ms,
        full_ms / incremental_ms, stats.dirty_fraction(), equal ? "true" : "false");
    std::fflush(stdout);
  }

  // The other consumer pattern: a second estimate_all with nothing new in
  // between (the epoch loop estimates for the planner, then again for
  // placement). A full re-raster re-interpolates everything; the bank finds
  // no stale UE and returns its cached slab.
  double full_ms = 0.0;
  const rem::RemBank full = time_estimate_all(twin, reps, params, full_ms);
  double cached_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    bank.estimate_all(params);
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    if (dt.count() < cached_ms) cached_ms = dt.count();
  }
  const bool equal = banks_equal(full, bank);
  std::printf(
      "{\"bench\":\"micro_rem\",\"kind\":\"cache_hit\",\"ues\":%zu,\"cells\":%zu,"
      "\"full_ms\":%.3f,\"incremental_ms\":%.3f,\"speedup\":%.3f,"
      "\"dirty_fraction\":%.4f,\"equal\":%s}\n",
      ues.size(), bank.last_estimate_stats().cells_total, full_ms, cached_ms,
      full_ms / cached_ms, bank.last_estimate_stats().dirty_fraction(),
      equal ? "true" : "false");
  return 0;
}

// Serial-vs-parallel throughput for the thread-pool hot paths (DESIGN.md,
// "Concurrency model"): REM interpolation (IDW + kriging), k-means, placement
// scoring, batched SRS ToF correlation and the planner's K-sweep. Each kernel
// runs once with the pool forced serial (1 worker) and once with all hardware
// workers, verifies the two results are bit-for-bit identical, and prints one
// machine-readable JSON line. Not a google-benchmark binary: the JSON contract is the point.
//
// Usage: micro_parallel [repetitions]   (default 3)
// Each side reports the median of its repetitions (`serial_ms`,
// `parallel_ms`) and its interquartile range as a fraction of that median
// (`serial_iqr_frac`, `parallel_iqr_frac`), so a noisy row shows as noisy.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/field_view.hpp"
#include "geo/grid.hpp"
#include "geo/mt19937.hpp"
#include "geo/rect.hpp"
#include "lte/ranging.hpp"
#include "lte/srs.hpp"
#include "lte/srs_channel.hpp"
#include "obs/env_session.hpp"
#include "rem/idw.hpp"
#include "rem/kmeans.hpp"
#include "rem/kriging.hpp"
#include "rem/placement.hpp"
#include "rem/planner.hpp"
#include "timing.hpp"

namespace skyran::bench {
namespace {

using Clock = std::chrono::steady_clock;

Timing time_reps(int reps, const auto& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    ms.push_back(dt.count());
  }
  return median_iqr(std::move(ms));
}

/// Time `fn` with 1 worker and with `workers`, compare results via `equal`,
/// and emit the JSON line. `fn` must return the kernel result by value.
void report(const char* kernel, std::size_t items, int workers, int reps, const auto& fn,
            const auto& equal) {
  core::set_global_workers(1);
  auto serial_result = fn();
  const Timing serial = time_reps(reps, fn);

  core::set_global_workers(workers);
  auto parallel_result = fn();
  const Timing parallel = time_reps(reps, fn);
  core::set_global_workers(0);  // restore auto

  const bool same = equal(serial_result, parallel_result);
  std::printf(
      "{\"bench\":\"micro_parallel\",\"kernel\":\"%s\",\"items\":%zu,"
      "\"workers\":%d,\"reps\":%d,\"serial_ms\":%.3f,\"parallel_ms\":%.3f,"
      "\"serial_iqr_frac\":%.3f,\"parallel_iqr_frac\":%.3f,"
      "\"speedup\":%.3f,\"equal\":%s}\n",
      kernel, items, workers, reps, serial.median_ms, parallel.median_ms, serial.iqr_frac,
      parallel.iqr_frac, serial.median_ms / parallel.median_ms, same ? "true" : "false");
  std::fflush(stdout);
}

bool grids_equal(const geo::Grid2D<double>& a, const geo::Grid2D<double>& b) {
  return a.same_geometry(b) && a.raw() == b.raw();
}

std::vector<rem::IdwSample> scattered_samples(const geo::Rect& area, std::size_t n,
                                              std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(area.min.x, area.max.x);
  std::uniform_real_distribution<double> uy(area.min.y, area.max.y);
  std::normal_distribution<double> snr(10.0, 6.0);
  std::vector<rem::IdwSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) samples.push_back({{ux(rng), uy(rng)}, snr(rng)});
  return samples;
}

}  // namespace
}  // namespace skyran::bench

int main(int argc, char** argv) {
  using namespace skyran;
  using namespace skyran::bench;

  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;
  const int workers = core::configured_workers();  // SKYRAN_THREADS else hardware
  const geo::Rect area{{0.0, 0.0}, {400.0, 400.0}};

  {
    const rem::IdwInterpolator idw(scattered_samples(area, 1200, 42), area);
    const auto run = [&] { return idw.estimate_grid(2.0, 8, 2.0, 150.0, -30.0); };
    report("idw_grid", run().raw().size(), workers, reps, run, grids_equal);
  }

  {
    const std::vector<rem::IdwSample> samples = scattered_samples(area, 900, 43);
    const rem::KrigingInterpolator kriging(samples, area, rem::fit_variogram(samples));
    const auto run = [&] { return kriging.estimate_grid(4.0, 8, 150.0, -30.0); };
    report("kriging_grid", run().raw().size(), workers, reps, run, grids_equal);
  }

  {
    geo::Mt19937_64 rng(44);
    std::uniform_real_distribution<double> u(0.0, 400.0);
    std::uniform_real_distribution<double> w(0.5, 3.0);
    std::vector<rem::WeightedPoint> points(20000);
    for (rem::WeightedPoint& p : points) p = {{u(rng), u(rng)}, w(rng)};
    const auto run = [&] { return rem::kmeans(points, 16, 7); };
    report("kmeans", points.size(), workers, reps, run,
           [](const rem::KMeansResult& a, const rem::KMeansResult& b) {
             return a.centroids == b.centroids && a.assignment == b.assignment &&
                    a.inertia == b.inertia && a.iterations == b.iterations;
           });
  }

  {
    geo::Mt19937_64 rng(45);
    std::normal_distribution<double> snr(8.0, 5.0);
    std::vector<geo::Grid2D<double>> maps;
    for (int i = 0; i < 8; ++i) {
      geo::Grid2D<double> m(area, 1.0, 0.0);
      for (double& v : m.raw()) v = snr(rng);
      maps.push_back(std::move(m));
    }
    const std::vector<geo::FieldView<const double>> views = geo::views_of(maps);
    const auto run = [&] {
      return rem::choose_placement(views, rem::PlacementObjective::kMaxMin);
    };
    report("placement", maps.front().raw().size() * maps.size(), workers, reps, run,
           [](const rem::Placement& a, const rem::Placement& b) {
             return a.position == b.position && a.objective_snr_db == b.objective_snr_db;
           });
  }

  {
    lte::SrsConfig cfg;
    const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
    geo::Mt19937_64 rng(46);
    std::vector<lte::SrsSymbol> received;
    for (int i = 0; i < 24; ++i) {
      lte::SrsChannelParams ch;
      ch.delay_s = (3.0 + 1.7 * i) / cfg.carrier.sample_rate_hz;
      ch.snr_db = 15.0;
      received.push_back(lte::apply_srs_channel(tx, ch, rng));
    }
    const lte::TofEstimator est(cfg, 4);
    const auto run = [&] { return est.estimate_batch(received); };
    report("tof_batch", received.size(), workers, reps, run,
           [](const std::vector<lte::TofEstimate>& a, const std::vector<lte::TofEstimate>& b) {
             if (a.size() != b.size()) return false;
             for (std::size_t i = 0; i < a.size(); ++i)
               if (a[i].delay_samples != b[i].delay_samples ||
                   a[i].distance_m != b[i].distance_m ||
                   a[i].peak_to_side_db != b[i].peak_to_side_db)
                 return false;
             return true;
           });
  }

  {
    // The planner's K-sweep (one K per lane) over eight UEs' seeded maps.
    geo::Mt19937_64 rng(47);
    std::uniform_real_distribution<double> u(0.0, 400.0);
    std::normal_distribution<double> snr(10.0, 6.0);
    rem::RemBank bank(area, 4.0, 60.0);
    for (int i = 0; i < 8; ++i) bank.add_ue({{u(rng), u(rng)}, 1.5});
    for (std::size_t i = 0; i < bank.ue_count(); ++i)
      for (int m = 0; m < 150; ++m) bank.add_measurement(i, {u(rng), u(rng)}, snr(rng));
    bank.estimate_all();
    const std::vector<rem::TrajectoryHistory> history(bank.ue_count());
    const auto run = [&] {
      return rem::plan_measurement_trajectory(bank, history, {200.0, 200.0}, 0.0, 7);
    };
    report("plan_trajectory", run().high_gradient_cells, workers, reps, run,
           [](const rem::PlannedTrajectory& a, const rem::PlannedTrajectory& b) {
             return a.path.points() == b.path.points() && a.k == b.k &&
                    a.info_gain == b.info_gain && a.cost_m == b.cost_m &&
                    a.info_to_cost == b.info_to_cost &&
                    a.high_gradient_cells == b.high_gradient_cells;
           });
  }

  return 0;
}

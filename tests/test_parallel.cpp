// Serial/parallel equivalence suite for the thread-pool epoch engine: every
// converted kernel must produce bit-for-bit identical output with 1 worker
// (forced serial) and N workers, including empty and single-element inputs.
// Also exercises the pool primitives themselves (coverage, chunk layout,
// exception propagation, nesting: a loop nested in a parallel body runs
// inline). Run under TSan in CI to catch races.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "localization/multilateration.hpp"
#include "localization/pipeline.hpp"
#include "lte/ranging.hpp"
#include "lte/srs_channel.hpp"
#include "mobility/deployment.hpp"
#include "obs/obs.hpp"
#include "rem/bank.hpp"
#include "rem/idw.hpp"
#include "rem/kmeans.hpp"
#include "rem/kriging.hpp"
#include "rem/placement.hpp"
#include "rem/planner.hpp"
#include "rf/channel.hpp"
#include "sim/faults.hpp"
#include "sim/measurement.hpp"
#include "sim/world.hpp"
#include "uav/flight.hpp"
#include "uav/gps.hpp"
#include "uav/trajectory.hpp"

namespace skyran {
namespace {

constexpr int kParallelWorkers = 8;

/// Run `fn` once per worker count and return the results for comparison.
template <typename F>
auto serial_and_parallel(F&& fn) {
  core::set_global_workers(1);
  auto serial = fn();
  core::set_global_workers(kParallelWorkers);
  auto parallel = fn();
  core::set_global_workers(0);
  return std::pair{std::move(serial), std::move(parallel)};
}

/// Run `fn` at 1, 4 and kParallelWorkers workers, in that order.
template <typename F>
auto at_worker_counts(F&& fn) {
  std::vector<decltype(fn())> out;
  for (const int workers : {1, 4, kParallelWorkers}) {
    core::set_global_workers(workers);
    out.push_back(fn());
  }
  core::set_global_workers(0);
  return out;
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  core::ThreadPool pool(kParallelWorkers);
  const std::size_t n = 10007;
  std::vector<int> hits(n, 0);
  pool.run_chunks(n, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, ChunkLayoutIndependentOfWorkerCount) {
  const std::size_t n = 5000;
  const auto layout_with = [&](int workers) {
    core::ThreadPool pool(workers);
    std::mutex mu;
    std::vector<std::array<std::size_t, 3>> chunks;
    pool.run_chunks(n, 0, [&](std::size_t c, std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lk(mu);
      chunks.push_back({c, b, e});
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto one = layout_with(1);
  const auto many = layout_with(kParallelWorkers);
  EXPECT_EQ(one, many);
  // Chunks are contiguous, ordered, and cover [0, n).
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.front()[1], 0u);
  EXPECT_EQ(one.back()[2], n);
  for (std::size_t c = 1; c < one.size(); ++c) EXPECT_EQ(one[c][1], one[c - 1][2]);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  core::ThreadPool pool(kParallelWorkers);
  int calls = 0;
  pool.run_chunks(0, 0, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  core::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.run_chunks(100, 10, [&](std::size_t, std::size_t, std::size_t) {
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 10u);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  core::ThreadPool pool(kParallelWorkers);
  const auto boom = [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (i == 777) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run_chunks(1000, 10, boom), std::runtime_error);
  // The pool stays usable after a failed loop.
  std::atomic<int> count{0};
  pool.run_chunks(1000, 10, [&](std::size_t, std::size_t begin, std::size_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  core::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.run_chunks(8, 1, [&](std::size_t, std::size_t, std::size_t) {
    core::parallel_for(10, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, NestedLoopRunsOnOuterChunkThread) {
  core::set_global_workers(kParallelWorkers);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInnerChunks = 10;
  std::vector<std::thread::id> outer(kOuter);
  std::vector<std::vector<std::thread::id>> inner(kOuter,
                                                  std::vector<std::thread::id>(kInnerChunks));
  core::parallel_for_chunks(kOuter, 1, [&](std::size_t c, std::size_t, std::size_t) {
    outer[c] = std::this_thread::get_id();
    core::parallel_for_chunks(100, 10, [&](std::size_t k, std::size_t, std::size_t) {
      inner[c][k] = std::this_thread::get_id();
    });
  });
  core::set_global_workers(0);
  for (std::size_t c = 0; c < kOuter; ++c)
    for (std::size_t k = 0; k < kInnerChunks; ++k)
      EXPECT_EQ(inner[c][k], outer[c]) << "outer chunk " << c << ", inner chunk " << k;
}

TEST(ThreadPoolTest, NestedReduceMatchesSerial) {
  std::vector<double> values(4099);
  geo::Mt19937_64 rng(7);
  std::normal_distribution<double> g(0.0, 5.0);
  for (double& v : values) v = g(rng);
  // Each outer index reduces a different prefix of `values` in a nested loop.
  const auto sums = [&]() {
    std::vector<double> out(24, 0.0);
    core::parallel_for(out.size(), [&](std::size_t j) {
      const std::size_t n = values.size() - 97 * j;
      out[j] = core::parallel_reduce(
          n, 0, 0.0,
          [&](std::size_t begin, std::size_t end) {
            double s = 0.0;
            for (std::size_t i = begin; i < end; ++i) s += values[i];
            return s;
          },
          [](double a, double b) { return a + b; });
    }, 1);
    return out;
  };
  const auto [serial, parallel] = serial_and_parallel(sums);
  EXPECT_EQ(serial, parallel);  // bitwise, not approximate
}

TEST(ThreadPoolTest, NestedLoopForksOnlyOutsideParallelBodies) {
#ifdef SKYRAN_OBS_DISABLED
  GTEST_SKIP() << "obs macros compiled out (-DSKYRAN_OBS_DISABLED)";
#endif
  core::set_global_workers(kParallelWorkers);
  core::parallel_for(64, [](std::size_t) {});  // build the multi-lane pool first
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const obs::Counter& parallel_runs = reg.counter("core.pool.runs_parallel");
  const obs::Counter& inline_runs = reg.counter("core.pool.runs_inline");
  const auto forks = [&](std::size_t outer_chunks) {
    obs::set_enabled(true);
    const std::uint64_t p0 = parallel_runs.value();
    const std::uint64_t i0 = inline_runs.value();
    core::parallel_for_chunks(outer_chunks, 1, [](std::size_t, std::size_t, std::size_t) {
      core::parallel_for(100, [](std::size_t) {}, 10);
    });
    obs::set_enabled(false);
    return std::pair{parallel_runs.value() - p0, inline_runs.value() - i0};
  };
  // A parallel outer loop forks once; its 8 nested loops run inline.
  EXPECT_EQ(forks(8), (std::pair<std::uint64_t, std::uint64_t>{1, 8}));
  // A 1-chunk outer loop runs inline and leaves its nested loop free to fork.
  EXPECT_EQ(forks(1), (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  core::set_global_workers(0);
}

TEST(ThreadPoolTest, ReduceBitwiseEqualAcrossWorkerCounts) {
  std::vector<double> values(12345);
  geo::Mt19937_64 rng(42);
  std::normal_distribution<double> g(0.0, 3.0);
  for (double& v : values) v = g(rng);
  const auto sum = [&]() {
    return core::parallel_reduce(
        values.size(), 0, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const auto [serial, parallel] = serial_and_parallel(sum);
  EXPECT_EQ(serial, parallel);  // bitwise, not approximate
}

TEST(ThreadPoolTest, EnvironmentOverrideRespected) {
  core::set_global_workers(0);
  ASSERT_EQ(setenv("SKYRAN_THREADS", "3", 1), 0);
  EXPECT_EQ(core::configured_workers(), 3);
  ASSERT_EQ(setenv("SKYRAN_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(core::configured_workers(), core::hardware_workers());
  ASSERT_EQ(unsetenv("SKYRAN_THREADS"), 0);
  // Explicit override beats the environment.
  ASSERT_EQ(setenv("SKYRAN_THREADS", "3", 1), 0);
  core::set_global_workers(5);
  EXPECT_EQ(core::configured_workers(), 5);
  core::set_global_workers(0);
  ASSERT_EQ(unsetenv("SKYRAN_THREADS"), 0);
}

TEST(ThreadPoolTest, ScopedWorkersOverridesAndRestores) {
  core::set_global_workers(0);
  const int base = core::configured_workers();
  {
    core::ScopedWorkers two(2);
    EXPECT_EQ(core::configured_workers(), 2);
    {
      core::ScopedWorkers one(1);
      EXPECT_EQ(core::configured_workers(), 1);
      core::ScopedWorkers noop(0);  // <= 0 leaves the resolution chain alone
      EXPECT_EQ(core::configured_workers(), 1);
    }
    EXPECT_EQ(core::configured_workers(), 2);
    // The scoped override beats the explicit global one...
    core::set_global_workers(5);
    EXPECT_EQ(core::configured_workers(), 2);
    core::set_global_workers(0);
    // ...and is thread-local: another thread never sees it.
    int other = 0;
    std::thread([&] { other = core::configured_workers(); }).join();
    EXPECT_EQ(other, base);
  }
  EXPECT_EQ(core::configured_workers(), base);
}

TEST(ThreadPoolTest, ScopedWorkersOneForcesInline) {
  // Build a multi-lane pool first: the cap must win over the pool's size.
  core::set_global_workers(kParallelWorkers);
  core::parallel_for(64, [](std::size_t) {});
  const core::ScopedWorkers serial(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;  // unsynchronized on purpose
  core::parallel_for_chunks(100, 10, [&](std::size_t, std::size_t, std::size_t) {
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 10u);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
  core::set_global_workers(0);
}

TEST(ThreadPoolTest, WorkerCountChangeWhileLoopsInFlight) {
  // Growing the pool must never invalidate a loop already running on it:
  // in-flight calls hold the pool via shared_ptr. Run under TSan in CI.
  std::atomic<bool> stop{false};
  std::atomic<int> loops{0};
  std::vector<std::thread> runners;
  for (int t = 0; t < 3; ++t)
    runners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::atomic<long> sum{0};
        core::parallel_for(1000, [&](std::size_t i) {
          sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 499500L);
        loops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Each step requests a larger pool, forcing repeated rebuilds underneath
  // the runners; the final reset to auto is also concurrency-safe now.
  for (int want = 2; want <= 12; ++want) {
    core::set_global_workers(want);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& th : runners) th.join();
  core::set_global_workers(0);
  EXPECT_GT(loops.load(), 0);
}

TEST(ParallelEquivalenceTest, IdwEstimateGrid) {
  const auto grid = [] {
    geo::Mt19937_64 rng(11);
    std::uniform_real_distribution<double> u(0.0, 200.0);
    std::vector<rem::IdwSample> samples;
    for (int i = 0; i < 300; ++i) samples.push_back({{u(rng), u(rng)}, u(rng) / 10.0});
    const rem::IdwInterpolator idw(samples, geo::Rect::square(200.0));
    return idw.estimate_grid(4.0, 8, 2.0, 1e9).raw();
  };
  const auto [serial, parallel] = serial_and_parallel(grid);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelEquivalenceTest, IdwEstimateGridEdgeCases) {
  const auto run = [] {
    const rem::IdwInterpolator empty({}, geo::Rect::square(50.0));
    const rem::IdwInterpolator single({{{25.0, 25.0}, 7.5}}, geo::Rect::square(50.0));
    auto a = empty.estimate_grid(5.0, 8, 2.0, 1e9, -99.0).raw();
    auto b = single.estimate_grid(5.0, 8, 2.0, 1e9).raw();
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_EQ(serial, parallel);
  // Empty interpolator: every cell takes the fallback; single sample: every
  // cell takes the sample's value.
  EXPECT_DOUBLE_EQ(serial.front(), -99.0);
  EXPECT_DOUBLE_EQ(serial.back(), 7.5);
}

TEST(ParallelEquivalenceTest, KrigingEstimateGrid) {
  const auto grid = [] {
    geo::Mt19937_64 rng(13);
    std::uniform_real_distribution<double> u(0.0, 120.0);
    std::uniform_real_distribution<double> val(-10.0, 25.0);
    std::vector<rem::IdwSample> samples;
    for (int i = 0; i < 150; ++i) samples.push_back({{u(rng), u(rng)}, val(rng)});
    const rem::Variogram v = rem::fit_variogram(samples);
    const rem::KrigingInterpolator k(samples, geo::Rect::square(120.0), v);
    return k.estimate_grid(4.0, 8, 1e9).raw();
  };
  const auto [serial, parallel] = serial_and_parallel(grid);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelEquivalenceTest, KrigingEstimateGridEdgeCases) {
  const auto run = [] {
    const rem::KrigingInterpolator none({}, geo::Rect::square(30.0), rem::Variogram{});
    const rem::KrigingInterpolator one({{{15.0, 15.0}, 3.25}}, geo::Rect::square(30.0),
                                       rem::Variogram{});
    auto a = none.estimate_grid(5.0, 8, 1e9, 1.0).raw();
    auto b = one.estimate_grid(5.0, 8, 1e9).raw();
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_EQ(serial, parallel);
  EXPECT_DOUBLE_EQ(serial.front(), 1.0);   // no samples -> fallback
  EXPECT_DOUBLE_EQ(serial.back(), 3.25);   // one sample -> its value
}

TEST(ParallelEquivalenceTest, KMeans) {
  std::vector<rem::WeightedPoint> points;
  geo::Mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 400.0);
  for (int i = 0; i < 1500; ++i) points.push_back({{u(rng), u(rng)}, 0.5 + u(rng) / 400.0});
  const auto run = [&] { return rem::kmeans(points, 12, 23); };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.inertia, parallel.inertia);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  ASSERT_EQ(serial.centroids.size(), parallel.centroids.size());
  for (std::size_t c = 0; c < serial.centroids.size(); ++c) {
    EXPECT_EQ(serial.centroids[c].x, parallel.centroids[c].x);
    EXPECT_EQ(serial.centroids[c].y, parallel.centroids[c].y);
  }
}

TEST(ParallelEquivalenceTest, KMeansEdgeCases) {
  const std::vector<rem::WeightedPoint> one{{{5.0, 5.0}, 2.0}};
  const auto run = [&] { return rem::kmeans(one, 3, 1); };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_EQ(serial.centroids.size(), 1u);  // k clamps to the point count
  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.inertia, parallel.inertia);
  core::set_global_workers(kParallelWorkers);
  EXPECT_THROW(rem::kmeans({}, 2, 1), ContractViolation);
  core::set_global_workers(0);
}

TEST(ParallelEquivalenceTest, PlacementScoring) {
  std::vector<geo::Grid2D<double>> maps;
  geo::Mt19937_64 rng(19);
  std::normal_distribution<double> g(8.0, 9.0);
  for (int m = 0; m < 6; ++m) {
    geo::Grid2D<double> grid(geo::Rect::square(180.0), 4.0, 0.0);
    for (double& v : grid.raw()) v = g(rng);
    maps.push_back(std::move(grid));
  }
  const std::vector<geo::FieldView<const double>> views = geo::views_of(maps);
  const std::vector<double> weights{1.0, 0.5, 2.0, 0.1, 1.5, 0.9};
  for (const auto objective :
       {rem::PlacementObjective::kMaxMin, rem::PlacementObjective::kMaxMean,
        rem::PlacementObjective::kMaxWeighted, rem::PlacementObjective::kMaxCoverage}) {
    const auto place = [&] { return rem::choose_placement(views, objective, weights); };
    const auto [serial, parallel] = serial_and_parallel(place);
    EXPECT_EQ(serial.position.x, parallel.position.x);
    EXPECT_EQ(serial.position.y, parallel.position.y);
    EXPECT_EQ(serial.objective_snr_db, parallel.objective_snr_db);
  }
}

TEST(ParallelEquivalenceTest, PlacementSingleMapSingleCell) {
  std::vector<geo::Grid2D<double>> maps;
  maps.emplace_back(geo::Rect::square(3.0), 4.0, 5.5);  // one cell covers the area
  const std::vector<geo::FieldView<const double>> views = geo::views_of(maps);
  const auto place = [&] { return rem::choose_placement(views); };
  const auto [serial, parallel] = serial_and_parallel(place);
  EXPECT_EQ(serial.position.x, parallel.position.x);
  EXPECT_EQ(serial.objective_snr_db, 5.5);
  EXPECT_EQ(parallel.objective_snr_db, 5.5);
}

TEST(ParallelEquivalenceTest, PlanMeasurementTrajectory) {
  // Five UEs with seeded measurements, two of them with a flown history.
  const geo::Rect area = geo::Rect::square(300.0);
  geo::Mt19937_64 rng(41);
  std::uniform_real_distribution<double> pos(5.0, 295.0);
  std::uniform_real_distribution<double> snr(-5.0, 30.0);
  rem::RemBank bank(area, 5.0, 60.0);
  for (int u = 0; u < 5; ++u) bank.add_ue({{pos(rng), pos(rng)}, 1.5});
  for (std::size_t u = 0; u < bank.ue_count(); ++u)
    for (int m = 0; m < 60; ++m) bank.add_measurement(u, {pos(rng), pos(rng)}, snr(rng));
  std::vector<rem::TrajectoryHistory> history(bank.ue_count());
  history[0].push_back(uav::random_walk(area, {150.0, 150.0}, 200.0, 40.0, 3));
  history[3].push_back(uav::random_walk(area, {60.0, 220.0}, 120.0, 30.0, 4));
  bank.estimate_all();
  const geo::Vec2 start{20.0, 30.0};

  for (const double budget : {0.0, 180.0}) {
    const auto plans = at_worker_counts(
        [&] { return rem::plan_measurement_trajectory(bank, history, start, budget, 7); });
    for (std::size_t w = 1; w < plans.size(); ++w) {
      SCOPED_TRACE(testing::Message() << "budget " << budget << " run " << w);
      EXPECT_EQ(plans[w].path.points(), plans[0].path.points());
      EXPECT_EQ(plans[w].k, plans[0].k);
      EXPECT_EQ(plans[w].info_gain, plans[0].info_gain);
      EXPECT_EQ(plans[w].cost_m, plans[0].cost_m);
      EXPECT_EQ(plans[w].info_to_cost, plans[0].info_to_cost);
      EXPECT_EQ(plans[w].high_gradient_cells, plans[0].high_gradient_cells);
    }
    if (budget == 0.0) {
      EXPECT_GT(plans[0].cost_m, 180.0);  // so the budget below truncates
    } else {
      EXPECT_NEAR(plans[0].cost_m, budget, 1e-6);
    }
  }
}

TEST(ParallelEquivalenceTest, MultilaterateJoint) {
  // Six UEs with noisy, outlier-laden tuples around one shared offset, plus
  // an unusable UE (three tuples) and one with none.
  const geo::Rect area = geo::Rect::square(300.0);
  geo::Mt19937_64 rng(43);
  std::uniform_real_distribution<double> pos(10.0, 290.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::vector<localization::GpsTofSeries> tuples;
  std::vector<double> altitudes;
  for (int u = 0; u < 8; ++u) {
    const geo::Vec3 ue{pos(rng), pos(rng), 1.5};
    const int n = u == 2 ? 3 : u == 5 ? 0 : 40 + 5 * u;
    localization::GpsTofSeries series;
    for (int i = 0; i < n; ++i) {
      const geo::Vec3 uav{130.0 + 0.6 * i, 140.0 + 0.3 * i, 60.0};
      double range = uav.dist(ue) + 38.0 + noise(rng);
      if (i % 9 == 4) range += 55.0;  // NLOS burst
      series.push_back({i * 0.02, uav, range});
    }
    tuples.push_back(std::move(series));
    altitudes.push_back(ue.z);
  }
  const auto fits =
      at_worker_counts([&] { return localization::multilaterate_joint(tuples, area, altitudes); });
  ASSERT_EQ(fits[0].per_ue.size(), tuples.size());
  for (const std::size_t u : {2u, 5u}) {  // unusable: the default result
    EXPECT_EQ(fits[0].per_ue[u].iterations, 0);
    EXPECT_EQ(fits[0].per_ue[u].position, geo::Vec2{});
  }
  EXPECT_GT(fits[0].per_ue[0].iterations, 0);
  for (std::size_t w = 1; w < fits.size(); ++w) {
    EXPECT_EQ(fits[w].shared_offset_m, fits[0].shared_offset_m);
    ASSERT_EQ(fits[w].per_ue.size(), fits[0].per_ue.size());
    for (std::size_t u = 0; u < fits[0].per_ue.size(); ++u) {
      SCOPED_TRACE(testing::Message() << "run " << w << " UE " << u);
      EXPECT_EQ(fits[w].per_ue[u].position, fits[0].per_ue[u].position);
      EXPECT_EQ(fits[w].per_ue[u].offset_m, fits[0].per_ue[u].offset_m);
      EXPECT_EQ(fits[w].per_ue[u].rms_residual_m, fits[0].per_ue[u].rms_residual_m);
      EXPECT_EQ(fits[w].per_ue[u].iterations, fits[0].per_ue[u].iterations);
    }
  }
}

TEST(ParallelEquivalenceTest, TofEstimateBatch) {
  lte::SrsConfig cfg;
  const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
  const lte::TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(29);
  std::vector<lte::SrsSymbol> received;
  for (int i = 0; i < 24; ++i) {
    lte::SrsChannelParams ch;
    ch.delay_s = (30.0 + 15.0 * i) / 3e8;
    ch.snr_db = 12.0;
    received.push_back(lte::apply_srs_channel(tx, ch, rng));
  }
  const auto run = [&] { return est.estimate_batch(received); };
  const auto [serial, parallel] = serial_and_parallel(run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].delay_samples, parallel[i].delay_samples);
    EXPECT_EQ(serial[i].distance_m, parallel[i].distance_m);
    EXPECT_EQ(serial[i].peak_to_side_db, parallel[i].peak_to_side_db);
    // The batch path must agree with the one-shot path.
    const lte::TofEstimate one = est.estimate(received[i]);
    EXPECT_EQ(serial[i].delay_samples, one.delay_samples);
  }
  EXPECT_TRUE(est.estimate_batch({}).empty());
  EXPECT_EQ(est.estimate_batch(std::span<const lte::SrsSymbol>(received.data(), 1)).size(), 1u);
}

/// Ray-traced campus with four UEs of mixed visibility.
sim::World campus_world() {
  sim::WorldConfig wc;
  wc.seed = 8;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 4, 9);
  return world;
}

TEST(ParallelEquivalenceTest, MeasurementFlightFaulted) {
  const sim::World world = campus_world();
  // 2881 reports: the flight spans several batches of the SNR pass.
  const geo::Path track({{40.0, 60.0}, {200.0, 60.0}, {200.0, 140.0}});
  const auto run = [&] {
    rem::RemBank bank(world.area(), 5.0, 60.0);
    for (const geo::Vec3& ue : world.ue_positions()) bank.add_ue(ue);
    sim::FaultPlan plan;
    plan.add({sim::FaultKind::kWindDrift, 3.0, 9.0, 2.0, 0.7})
        .add({sim::FaultKind::kSrsSnrSag, 6.0, 14.0, 7.5, 0.0})
        .add({sim::FaultKind::kBackhaulOutage, 12.0, 17.0, 0.0, 0.0});
    sim::FaultInjector faults(plan);
    geo::Mt19937_64 rng(21);
    sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(track, 60.0), bank, {}, rng,
                                &faults, 1.5);
    std::vector<double> cells;  // (count, measured mean) of every cell of every UE
    for (std::size_t i = 0; i < bank.ue_count(); ++i)
      for (int iy = 0; iy < bank.ny(); ++iy)
        for (int ix = 0; ix < bank.nx(); ++ix) {
          cells.push_back(bank.measurement_count(i, {ix, iy}));
          cells.push_back(bank.measured_snr(i, {ix, iy}).value_or(0.0));
        }
    return std::pair{cells, rng()};
  };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(ParallelEquivalenceTest, CollectGpsTofFaultedRayTraced) {
  const sim::World world = campus_world();
  const localization::RangingConfig rc;
  const geo::Path track =
      uav::random_walk(world.area().inflated(-10.0), {150.0, 150.0}, 70.0, 9.0, 5);
  const std::vector<uav::FlightSample> flight =
      uav::fly(uav::FlightPlan::at_altitude(track, 60.0), 1.0 / localization::kGpsRateHz);
  const auto run = [&] {
    sim::FaultPlan plan;
    plan.seed = 3;
    plan.add({sim::FaultKind::kSrsSymbolLoss, 1.0, 4.0, 0.3, 0.0})
        .add({sim::FaultKind::kSrsSnrSag, 2.5, 5.0, 30.0, 0.0})
        .add({sim::FaultKind::kGpsOutage, 5.5, 6.5, 0.0, 0.0});
    sim::FaultInjector faults(plan);
    geo::Mt19937_64 rng(7);
    std::vector<double> out;  // every tuple of every UE, flattened
    for (std::size_t i = 0; i < world.ue_positions().size(); ++i) {
      uav::GpsSensor gps(6 + i);
      for (const localization::GpsTofTuple& t :
           localization::collect_gps_tof(flight, world.ue_positions()[i], world.channel(),
                                         world.budget(), gps, rc, rng, &faults))
        out.insert(out.end(), {t.time_s, t.uav_position.x, t.uav_position.y,
                               t.uav_position.z, t.range_m});
    }
    return std::pair{out, rng()};
  };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_GT(serial.first.size(), 1000u);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(ParallelEquivalenceTest, SrsChannelDeterministicAcrossWorkerCounts) {
  lte::SrsConfig cfg;
  const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
  const auto run = [&] {
    geo::Mt19937_64 rng(37);
    lte::SrsChannelParams ch;
    ch.delay_s = 4e-7;
    ch.snr_db = 10.0;
    ch.taps = lte::make_nlos_taps(3, 50e-9, -4.0, 4.0, rng);
    return lte::apply_srs_channel(tx, ch, rng).freq;
  };
  const auto [serial, parallel] = serial_and_parallel(run);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace skyran

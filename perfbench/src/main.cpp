// perfbench: the repo benchmark binary. One process, one calling thread, one
// workload per invocation:
//
//   perfbench --workload <campaign_day|fleet_radio|paper_loop>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 times 1-lane and W-lane passes of the same seeded inputs with
// telemetry off and prints the end-to-end metrics. --trace 1 alternates
// untraced and traced W-lane passes, reads the obs registry (exact span sums
// and counters) and prints the per-layer metrics. Either way the last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// line before it records the environment and the derivation details. Any
// failed check makes the exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_pool.hpp"
#include "derive.hpp"
#include "kernels/kernels.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace core = skyran::core;
namespace obs = skyran::obs;

constexpr int kMaxLanes = 4;

/// Final-pass digests recorded when the benchmark was added, at the default seed, per
/// kernel SIMD level (tolerance kernels may differ in the last bits between
/// levels; other levels skip the comparison).
constexpr std::uint64_t kDefaultSeed = 1;
struct Reference {
  const char* workload;
  const char* simd;
  std::uint64_t digest;
};
constexpr Reference kReferences[] = {
    {"campaign_day", "avx2", 0xa3267698f5a0b454ULL},
    {"fleet_radio", "avx2", 0x10f45ed127399808ULL},
    {"paper_loop", "avx2", 0x2379973c17d9d0f4ULL},
};

/// Passes per run, fixed by workload and --seconds (never by measured speed,
/// so the tail percentile's rank is the same on every commit). The nominal
/// costs are W-lane and 1-lane pass seconds measured on a 4-core x86 box;
/// 40% of the budget goes to 1-lane passes, whose times are the noisier.
struct Plan {
  int serial = 1;
  int parallel = 1;
};

Plan plan_for(std::string_view workload, double seconds, bool traced) {
  struct Cost {
    const char* name;
    double parallel_s, serial_s;
    int min_parallel;  ///< enough W-lane steps for a tail percentile
  };
  constexpr Cost kCosts[] = {
      {"campaign_day", 2.85, 1.5, 1},
      {"fleet_radio", 1.26, 1.9, 2},
      {"paper_loop", 7.3, 11.6, 3},
  };
  Cost c = kCosts[0];
  for (const Cost& k : kCosts)
    if (workload == k.name) c = k;
  Plan p;
  if (traced) {
    // Alternating untraced/traced W-lane pairs.
    p.serial = 0;
    p.parallel = std::max(1, static_cast<int>(seconds / (2.0 * c.parallel_s)));
    return p;
  }
  p.serial = std::max(1, static_cast<int>(0.4 * seconds / c.serial_s));
  p.parallel = std::max(c.min_parallel,
                        static_cast<int>((seconds - p.serial * c.serial_s) / c.parallel_s));
  return p;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 25.0;
  int trace = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return core::hardware_workers();
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> step_ms;
  std::vector<std::uint64_t> digests;
  int failed_steps = 0;
  std::uint64_t final_digest = 0;
  Quality quality;
  double save_ms = 0.0;
};

Pass run_pass(Workload& w, int lanes) {
  const core::ScopedWorkers scoped(lanes);
  Pass p;
  const auto t0 = Clock::now();
  w.setup(lanes);
  p.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (int i = 0; i < w.steps(); ++i) {
    w.feed(i);
    const auto ts = Clock::now();
    try {
      p.digests.push_back(w.step(i));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: step %d threw: %s\n", i, e.what());
      p.failed_steps = w.steps() - i;  // the rest of the pass cannot run
      return p;
    }
    p.step_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - ts).count());
    w.observe(i);
  }
  for (const double ms : p.step_ms) p.run_s += ms / 1000.0;
  p.final_digest = w.final_digest();
  p.quality = w.quality();
  p.save_ms = w.save_ms();
  return p;
}

/// Median wall time of an empty parallel_for_chunks over a fixed range on
/// `lanes` lanes: the pool's fixed per-dispatch cost.
double dispatch_us(int lanes) {
  const core::ScopedWorkers scoped(lanes);
  std::vector<double> us;
  for (int r = 0; r < 2000; ++r) {
    const auto t0 = Clock::now();
    core::parallel_for_chunks(4096, 0, [](std::size_t, std::size_t, std::size_t) {});
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return median(us);
}

/// Tally of checks: every step is one attempted operation, and so is each
/// pass-level check (reference digest, checkpoint restore). A step fails
/// when it throws or its digest differs from the reference pass's.
struct Checks {
  long attempted = 0;
  long failed = 0;
  void steps(const Pass& p, const std::vector<std::uint64_t>& expect) {
    attempted += static_cast<long>(p.digests.size()) + p.failed_steps;
    failed += p.failed_steps;
    for (std::size_t i = 0; i < p.digests.size(); ++i)
      if (i >= expect.size() || p.digests[i] != expect[i]) {
        ++failed;
        std::fprintf(stderr, "perfbench: step %zu digest differs from the reference pass\n", i);
      }
  }
  bool check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
    return ok;
  }
  double failed_frac() const {
    return ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

const char* reference_status(std::string_view workload, std::uint64_t seed, const char* simd,
                             std::uint64_t digest, Checks& checks) {
  if (seed != kDefaultSeed) return "not_default_seed";
  for (const Reference& r : kReferences) {
    if (workload != r.workload || std::strcmp(simd, r.simd) != 0) continue;
    return checks.check(digest == r.digest, "final digest equals the recorded reference")
               ? "match"
               : "MISMATCH";
  }
  return "no_reference_for_level";
}

template <typename... Xs>
std::string fmt(const char* f, Xs... xs) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), f, xs...);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, const Checks& checks,
                  const std::string& env) {
  for (const Metric& m : metrics)
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("%s\n", env.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted, checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const int cpus = nproc();
  const int lanes = std::min(kMaxLanes, cpus);
  // The shared pool is built once, up front, with exactly W lanes (W - 1
  // threads plus this one); 1-lane passes cap it per call.
  core::set_global_workers(lanes);
  core::acquire_global_pool();
  const char* simd = skyran::kernels::level_name(skyran::kernels::active_level());

  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace != 0;
  const Plan plan = plan_for(args.workload, args.seconds, traced);
  Checks checks;
  std::vector<Metric> metrics;
  std::string env = fmt(
      "{\"env\": {\"nproc\": %d, \"lanes\": %d, \"simd\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}, \"run\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"serial_passes\": %d, \"parallel_passes\": %d, ",
      cpus, lanes, simd, __VERSION__, PERFBENCH_BUILD_TYPE, args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace, plan.serial,
      plan.parallel);

  Pass last;
  if (!traced) {
    // 1-lane passes spread evenly among the W-lane ones, starting with one
    // whose step digests every other pass must reproduce.
    std::vector<Pass> serial, parallel;
    const int total = plan.serial + plan.parallel;
    for (int k = 0; k < total; ++k) {
      const int s = static_cast<int>(serial.size());
      if (s < plan.serial && s * total <= k * plan.serial) serial.push_back(run_pass(*w, 1));
      else parallel.push_back(run_pass(*w, lanes));
    }
    const std::vector<std::uint64_t> expect = serial.front().digests;
    std::vector<double> setup, run_s, serial_s, steps;
    for (const Pass& p : serial) {
      checks.steps(p, expect);
      setup.push_back(p.setup_s);
      serial_s.push_back(p.run_s);
    }
    for (const Pass& p : parallel) {
      checks.steps(p, expect);
      setup.push_back(p.setup_s);
      run_s.push_back(p.run_s);
      steps.insert(steps.end(), p.step_ms.begin(), p.step_ms.end());
    }
    last = parallel.back();
    double restore_ms = 0.0;
    checks.check(w->restore_matches(restore_ms), "restored checkpoint reproduces state");
    const Tail tail = tail_of(steps);
    const Quality& q = last.quality;
    metrics = {
        {"setup_s", median(setup), "s"},
        {"run_s", median(run_s), "s"},
        {"serial_run_s", median(serial_s), "s"},
        {"step_ms_p50", median(steps), "ms"},
        {"step_ms_tail", tail.value, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"availability", q.availability, "fraction"},
        {"served_gbit", q.served_gbit, "Gbit"},
        {"served_mbps_mean", q.served_mbps_mean, "Mbit/s"},
    };
    env += fmt("\"step_ms_tail_pct\": %g, \"step_samples\": %zu, \"samples_beyond\": %zu, "
               "\"handovers\": %llu, \"loc_err_m_p50\": %.6g, ",
               tail.pct, tail.n, tail.beyond, static_cast<unsigned long long>(q.handovers),
               q.loc_err_m_p50);
  } else {
    TracedRun t;
    t.passes = plan.parallel;
    t.pool_us = dispatch_us(lanes);
    std::vector<double> plain_s, traced_s;
    std::vector<std::uint64_t> expect;
    obs::MetricsRegistry::instance().reset_values();
    for (int k = 0; k < plan.parallel; ++k) {
      const Pass plain = run_pass(*w, lanes);
      if (k == 0) expect = plain.digests;
      checks.steps(plain, expect);
      plain_s.push_back(plain.run_s);

      obs::set_enabled(true);
      last = run_pass(*w, lanes);
      obs::set_enabled(false);
      obs::TraceJournal::instance().clear();
      checks.steps(last, expect);  // telemetry never feeds back into results
      traced_s.push_back(last.run_s);
      t.save_ms += last.save_ms / t.passes;
    }
    const RegistryView view(obs::MetricsRegistry::instance().snapshot());
    checks.check(w->restore_matches(t.restore_ms), "restored checkpoint reproduces state");
    t.overhead_frac = median(traced_s) / median(plain_s) - 1.0;
    t.ckpt_bytes = w->ckpt_bytes();
    t.loc_err_m_p50 = last.quality.loc_err_m_p50;
    metrics = per_layer(view, t);
  }
  const char* ref = reference_status(args.workload, args.seed, simd, last.final_digest, checks);
  env += fmt("\"failed_frac\": %.6g, \"final_digest\": \"%016llx\", \"reference\": \"%s\"}}",
             checks.failed_frac(), static_cast<unsigned long long>(last.final_digest), ref);
  print_result(metrics, checks, env);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <campaign_day|fleet_radio|paper_loop> "
                 "[--seed n] [--seconds s] [--trace 0|1]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

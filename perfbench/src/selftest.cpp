// Self-test of the benchmark's derived numbers: the tail-percentile rule at
// several sample counts, self-time subtraction, exact reads of span sums and
// counters from the live obs registry, and the per-layer ratio metrics with
// their bases. Exits 1 on the first failed expectation.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "derive.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"

namespace {

using namespace perfbench;
namespace obs = skyran::obs;

int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (ok) return;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  std::exit(1);
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void tail_rule() {
  // (sample count, percentile the rule must pick, samples beyond it)
  struct Case {
    std::size_t n;
    double pct;
    std::size_t beyond;
  };
  const Case cases[] = {
      {1, 50.0, 0},     {19, 50.0, 9},     {20, 50.0, 10},    {39, 50.0, 19},
      {40, 75.0, 10},   {99, 75.0, 24},    {100, 90.0, 10},   {144, 90.0, 14},
      {199, 90.0, 19},  {200, 95.0, 10},   {999, 95.0, 49},   {1000, 99.0, 10},
      {10000, 99.9, 10},
  };
  for (const Case& c : cases) {
    const Tail t = tail_of(ramp(c.n));
    const std::string at = "tail at n=" + std::to_string(c.n);
    expect(t.n == c.n, at + " records the sample count");
    expect_near(t.pct, c.pct, at + " percentile");
    expect(t.beyond == c.beyond, at + " samples beyond = " + std::to_string(t.beyond));
  }
  // Value: linear interpolation between order statistics, order-independent.
  expect_near(tail_of(ramp(100)).value, 90.1, "p90 of 1..100");
  expect_near(tail_of({4.0, 1.0, 3.0, 2.0}).value, 2.5, "fallback median of a shuffled sample");
  expect_near(median({5.0, 1.0, 3.0}), 3.0, "odd median");
  expect_near(median({}), 0.0, "empty median");
}

void self_time_subtraction() {
  expect_near(self_time(10.0, {3.0, 4.0}), 3.0, "self = total - children");
  expect_near(self_time(10.0, {}), 10.0, "no children: self = total");
}

void registry_reads() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset_values();
  // Span sums come from the exact histogram sum, not the bucket quantiles:
  // 1500 us and 2500 us land in different log2 buckets but sum to 4 ms.
  reg.histogram("span.selftest.phase.us").observe(1500.0);
  reg.histogram("span.selftest.phase.us").observe(2500.0);
  reg.counter("selftest.items").add(7);
  reg.gauge("selftest.level").set(2.5);
  obs::set_enabled(true);
  { const obs::TraceSpan span("selftest.live"); }
  obs::set_enabled(false);
  obs::TraceJournal::instance().clear();

  const RegistryView v(reg.snapshot());
  expect_near(v.span_ms("selftest.phase"), 4.0, "span sum in ms");
  expect(v.span_count("selftest.phase") == 2, "span count");
  expect(v.span_count("selftest.live") == 1, "a live TraceSpan is read back");
  expect(v.counter("selftest.items") == 7, "counter value");
  expect_near(v.gauge("selftest.level"), 2.5, "gauge value");
  expect_near(v.histogram_mean("span.selftest.phase.us"), 2000.0, "histogram mean");
  expect(v.counter("selftest.absent") == 0 && v.span_ms("selftest.absent") == 0.0,
         "missing names read as zero");
  reg.reset_values();
}

double metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return m.value;
  expect(false, "metric " + name + " present");
  return 0.0;
}

void ratio_metrics() {
  expect_near(ratio(1.0, 4.0), 0.25, "ratio");
  expect_near(ratio(1.0, 0.0), 0.0, "ratio over a zero base");

  // A synthetic registry of two traced passes.
  obs::MetricsSnapshot s;
  const auto span = [&](const char* name, double us) {
    obs::HistogramSnapshot h;
    h.name = std::string("span.") + name + ".us";
    h.count = 2;
    h.sum = us;
    s.histograms.push_back(h);
  };
  span("campaign.hour", 1000e3);
  span("fleet.epoch", 800e3);
  span("fleet.measure", 100e3);
  span("fleet.decide", 20e3);
  span("fleet.apply", 10e3);
  span("fleet.sinr", 70e3);
  span("fleet.serve", 560e3);
  span("epoch.run", 400e3);
  span("epoch.localize", 150e3);
  span("epoch.altitude", 10e3);
  span("epoch.measure_and_place", 200e3);
  s.counters = {{"core.pool.chunks", 600},        {"core.pool.runs_inline", 4},
                {"core.pool.runs_parallel", 6},   {"epoch.rem_cache.hit", 3},
                {"epoch.rem_cache.miss", 13},     {"fleet.epochs", 20},
                {"rem.bank.cells_cached", 250},   {"rem.bank.cells_reestimated", 750}};
  s.gauges = {{"fleet.ues", 1000.0}};
  obs::HistogramSnapshot depth;
  depth.name = "core.pool.queue_depth";
  depth.count = 6;
  depth.sum = 21.0;
  s.histograms.push_back(depth);

  TracedRun t;
  t.passes = 2.0;
  t.pool_us = 8.0;
  const std::vector<Metric> m = per_layer(RegistryView(s), t);
  expect_near(metric(m, "scenario.hour_ms"), 500.0, "hour ms per pass");
  expect_near(metric(m, "scenario.self_ms"), 100.0, "scenario self = hour - fleet.epoch");
  expect_near(metric(m, "fleet.serve_share"), 0.7, "serve share over fleet.epoch");
  expect_near(metric(m, "fleet.phase_share"), 0.95, "phase sums over fleet.epoch");
  expect_near(metric(m, "fleet.ue_epochs"), 10000.0, "ues x epochs per pass");
  expect_near(metric(m, "core.phase_share"), 0.9, "core phases over epoch.run");
  expect_near(metric(m, "rem.reestimate_frac"), 0.75, "reestimated over reestimated+cached");
  expect_near(metric(m, "rem.store_hit_frac"), 3.0 / 16.0, "hits over hits+misses");
  expect_near(metric(m, "pool.dispatches"), 3.0, "parallel dispatches per pass");
  expect_near(metric(m, "pool.chunks_per_dispatch"), 60.0, "chunks over all run_chunks calls");
  expect_near(metric(m, "pool.queue_depth_mean"), 3.5, "queue depth sum over count");
  expect_near(metric(m, "pool.overhead_est_ms"), 3.0 * 8.0 / 1000.0, "dispatches x dispatch_us");
  expect_near(metric(m, "lte.tof_batch_ms"), 0.0, "idle layer reads zero");

  // No enclosing hour (fleet_radio): the self time is zero, not negative.
  obs::MetricsSnapshot f;
  obs::HistogramSnapshot h;
  h.name = "span.fleet.epoch.us";
  h.count = 1;
  h.sum = 5e3;
  f.histograms.push_back(h);
  expect_near(metric(per_layer(RegistryView(f), TracedRun{}), "scenario.self_ms"), 0.0,
              "self time without its enclosing span");
}

}  // namespace

int main() {
  tail_rule();
  self_time_subtraction();
  registry_reads();
  ratio_metrics();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}

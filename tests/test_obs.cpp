// Tests for the observability subsystem (src/obs): registry semantics,
// histogram bucketing/quantiles, TraceSpan nesting and epoch tagging, JSON
// exporter round-trip through a test-side parser, thread-safety of
// recording from inside parallel_for bodies (run under TSan in CI), and the
// disabled-mode contract — instrumentation on or off, simulation outputs
// are bit-identical.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/skyran.hpp"
#include "core/thread_pool.hpp"
#include "mobility/deployment.hpp"
#include "obs/obs.hpp"

namespace skyran::obs {
namespace {

/// Every test starts from a clean, disabled state and leaves it that way:
/// the registry/journal are process-wide, so leaked state would couple tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    MetricsRegistry::instance().reset_values();
    TraceJournal::instance().clear();
    set_current_epoch(0);
  }
  void TearDown() override {
    set_enabled(false);
    MetricsRegistry::instance().reset_values();
    TraceJournal::instance().clear();
    set_current_epoch(0);
  }
};

TEST_F(ObsTest, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log buckets are a factor of two wide: the quantile is bucket-accurate.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 50.0);
  EXPECT_LE(p99, 100.0);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST_F(ObsTest, HistogramBucketLayout) {
  // Zero and negatives land in the underflow bucket; positives in the
  // bucket whose [2^k, 2^k+1) range contains them; bounds are monotone.
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_of(1.0), Histogram::kExponentOffset);
  EXPECT_EQ(Histogram::bucket_of(1.5), Histogram::kExponentOffset);
  EXPECT_EQ(Histogram::bucket_of(2.0), Histogram::kExponentOffset + 1);
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
  for (int b = 1; b < Histogram::kBuckets; ++b)
    EXPECT_GT(Histogram::bucket_lower_bound(b), Histogram::bucket_lower_bound(b - 1));
  Histogram h;
  h.observe(3.0);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(Histogram::bucket_of(3.0))], 1u);
}

TEST_F(ObsTest, RegistryPointerStabilityAndReset) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  Counter& a = reg.counter("test.registry.counter");
  Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);  // same name -> same metric
  a.add(7);
  Histogram& h = reg.histogram("test.registry.histogram");
  h.observe(1.0);
  reg.reset_values();
  // References stay valid after reset (macros cache them in statics).
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&reg.counter("test.registry.counter"), &a);
}

TEST_F(ObsTest, MacrosAreInertWhenDisabled) {
  ASSERT_FALSE(enabled());
  SKYRAN_COUNTER_INC("test.macro.counter");
  SKYRAN_GAUGE_SET("test.macro.gauge", 3.0);
  SKYRAN_HISTOGRAM_OBSERVE("test.macro.histogram", 3.0);
  { SKYRAN_TRACE_SPAN("test.macro.span"); }
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  for (const auto& c : snap.counters) EXPECT_EQ(c.value, 0u) << c.name;
  for (const auto& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
  EXPECT_EQ(TraceJournal::instance().events().size(), 0u);
}

TEST_F(ObsTest, MacrosRecordWhenEnabled) {
#ifdef SKYRAN_OBS_DISABLED
  GTEST_SKIP() << "obs macros compiled out (-DSKYRAN_OBS_DISABLED)";
#endif
  set_enabled(true);
  SKYRAN_COUNTER_ADD("test.macro.counter", 3);
  SKYRAN_COUNTER_ADD("test.macro.counter", 4);
  SKYRAN_GAUGE_SET("test.macro.gauge", 2.5);
  SKYRAN_HISTOGRAM_OBSERVE("test.macro.histogram", 10.0);
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("test.macro.counter").value(), 7u);
  EXPECT_DOUBLE_EQ(reg.gauge("test.macro.gauge").value(), 2.5);
  EXPECT_EQ(reg.histogram("test.macro.histogram").count(), 1u);
}

TEST_F(ObsTest, TraceSpanNestingDepthsAndEpochTag) {
#ifdef SKYRAN_OBS_DISABLED
  GTEST_SKIP() << "obs macros compiled out (-DSKYRAN_OBS_DISABLED)";
#endif
  set_enabled(true);
  set_current_epoch(5);
  {
    SKYRAN_TRACE_SPAN("outer");
    {
      SKYRAN_TRACE_SPAN("inner");
    }
  }
  const std::vector<TraceEvent> events = TraceJournal::instance().events();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it is recorded first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.epoch, 5);
    EXPECT_GE(e.duration_us, 0.0);
  }
  // The outer span contains the inner one in time.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].duration_us, events[0].duration_us);
  // Span durations also feed the span.<name>.us histograms.
  EXPECT_EQ(MetricsRegistry::instance().histogram("span.outer.us").count(), 1u);
}

TEST_F(ObsTest, SpanConstructedWhileDisabledStaysInert) {
  {
    SKYRAN_TRACE_SPAN("test.toggled.span");
    set_enabled(true);  // toggled mid-span: must not record a half-timed event
  }
  EXPECT_EQ(TraceJournal::instance().events().size(), 0u);
}

// ---------------------------------------------------------------------------
// JSON exporter round-trip through a minimal test-side parser. The exporter
// emits flat one-line objects with string and number values only, which is
// exactly what this parser accepts.

struct JsonRecord {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

/// Parse one flat JSON object ({"k":"v","k2":123,...}). Returns false on
/// malformed input — the test fails rather than tolerating bad output.
bool parse_flat_json(const std::string& line, JsonRecord& out) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  };
  const auto parse_string = [&](std::string& s) {
    if (line[i] != '"') return false;
    ++i;
    s.clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        if (++i >= line.size()) return false;
        switch (line[i]) {
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          default: s += line[i];
        }
      } else {
        s += line[i];
      }
      ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  for (;;) {
    skip_ws();
    if (i < line.size() && line[i] == '}') return true;
    std::string key;
    if (!parse_string(key)) return false;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i < line.size() && line[i] == '"') {
      std::string value;
      if (!parse_string(value)) return false;
      out.strings[key] = value;
    } else {
      std::size_t consumed = 0;
      try {
        out.numbers[key] = std::stod(line.substr(i), &consumed);
      } catch (...) {
        return false;
      }
      if (consumed == 0) return false;
      i += consumed;
    }
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return true;
    return false;
  }
}

TEST_F(ObsTest, JsonExporterRoundTrip) {
#ifdef SKYRAN_OBS_DISABLED
  GTEST_SKIP() << "obs macros compiled out (-DSKYRAN_OBS_DISABLED)";
#endif
  set_enabled(true);
  set_current_epoch(2);
  SKYRAN_COUNTER_ADD("test.json.counter", 42);
  SKYRAN_GAUGE_SET("test.json.gauge", 1.25);
  for (int i = 1; i <= 8; ++i) SKYRAN_HISTOGRAM_OBSERVE("test.json.histogram", i);
  { SKYRAN_TRACE_SPAN("test.json.span"); }

  std::ostringstream os;
  write_json_lines(os);
  std::istringstream is(os.str());

  std::string line;
  std::vector<JsonRecord> records;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JsonRecord rec;
    ASSERT_TRUE(parse_flat_json(line, rec)) << "unparseable line: " << line;
    ASSERT_TRUE(rec.strings.count("type")) << line;
    records.push_back(std::move(rec));
  }
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().strings.at("type"), "meta");
  EXPECT_DOUBLE_EQ(records.front().numbers.at("schema"), kJsonSchemaVersion);

  bool saw_counter = false, saw_gauge = false, saw_histogram = false, saw_span = false;
  for (const JsonRecord& rec : records) {
    const std::string& type = rec.strings.at("type");
    if (type == "counter" && rec.strings.at("name") == "test.json.counter") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(rec.numbers.at("value"), 42.0);
    } else if (type == "gauge" && rec.strings.at("name") == "test.json.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(rec.numbers.at("value"), 1.25);
    } else if (type == "histogram" && rec.strings.at("name") == "test.json.histogram") {
      saw_histogram = true;
      EXPECT_DOUBLE_EQ(rec.numbers.at("count"), 8.0);
      EXPECT_DOUBLE_EQ(rec.numbers.at("sum"), 36.0);
      EXPECT_DOUBLE_EQ(rec.numbers.at("min"), 1.0);
      EXPECT_DOUBLE_EQ(rec.numbers.at("max"), 8.0);
      EXPECT_GT(rec.numbers.at("p90"), 0.0);
    } else if (type == "span" && rec.strings.at("name") == "test.json.span") {
      saw_span = true;
      EXPECT_DOUBLE_EQ(rec.numbers.at("epoch"), 2.0);
      EXPECT_DOUBLE_EQ(rec.numbers.at("depth"), 0.0);
      EXPECT_GE(rec.numbers.at("dur_us"), 0.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
  EXPECT_TRUE(saw_span);
}

TEST_F(ObsTest, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
}

// ---------------------------------------------------------------------------
// Thread safety: recording from inside parallel_for bodies must neither race
// (TSan-clean; CI runs this binary under -DSKYRAN_SANITIZE=thread) nor lose
// events.

TEST_F(ObsTest, RecordingFromParallelForIsExactAndRaceFree) {
#ifdef SKYRAN_OBS_DISABLED
  GTEST_SKIP() << "obs macros compiled out (-DSKYRAN_OBS_DISABLED)";
#endif
  set_enabled(true);
  constexpr std::size_t kN = 20000;
  const core::ScopedWorkers workers(8);
  core::parallel_for(kN, [&](std::size_t i) {
    SKYRAN_COUNTER_INC("test.parallel.counter");
    SKYRAN_HISTOGRAM_OBSERVE("test.parallel.histogram", static_cast<double>(i % 97) + 1.0);
    if (i % 1000 == 0) {
      SKYRAN_TRACE_SPAN("test.parallel.span");
    }
  });
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("test.parallel.counter").value(), kN);
  EXPECT_EQ(reg.histogram("test.parallel.histogram").count(), kN);
  EXPECT_EQ(reg.histogram("span.test.parallel.span.us").count(), kN / 1000);
  EXPECT_EQ(TraceJournal::instance().events().size(), kN / 1000);
  EXPECT_EQ(TraceJournal::instance().dropped(), 0u);
}

TEST_F(ObsTest, JournalDropsBeyondCapacityWithoutGrowing) {
  set_enabled(true);
  TraceEvent e;
  e.name = "bulk";
  for (std::size_t i = 0; i < 100; ++i) TraceJournal::instance().record(e);
  EXPECT_EQ(TraceJournal::instance().events().size(), 100u);
  TraceJournal::instance().clear();
  EXPECT_EQ(TraceJournal::instance().events().size(), 0u);
  EXPECT_EQ(TraceJournal::instance().dropped(), 0u);
}

// ---------------------------------------------------------------------------
// The disabled-mode contract, end to end: a full SkyRan epoch produces
// bit-identical outputs with instrumentation off and on (recording never
// feeds back into simulation state), and the off-mode run records nothing.

sim::World make_world(std::uint64_t seed) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = seed;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 4, seed + 1);
  return world;
}

core::EpochReport run_one_epoch() {
  sim::World world = make_world(11);
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 400.0;
  cfg.localization_mode = core::LocalizationMode::kGaussianError;
  cfg.injected_error_m = 8.0;
  core::SkyRan skyran(world, cfg, 7);
  return skyran.run_epoch();
}

void expect_bit_identical(const core::EpochReport& a, const core::EpochReport& b) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.estimated_ue_positions.size(), b.estimated_ue_positions.size());
  for (std::size_t i = 0; i < a.estimated_ue_positions.size(); ++i) {
    EXPECT_TRUE(same_bits(a.estimated_ue_positions[i].x, b.estimated_ue_positions[i].x));
    EXPECT_TRUE(same_bits(a.estimated_ue_positions[i].y, b.estimated_ue_positions[i].y));
  }
  EXPECT_EQ(a.reused_rem, b.reused_rem);
  EXPECT_TRUE(same_bits(a.localization_flight_m, b.localization_flight_m));
  EXPECT_TRUE(same_bits(a.altitude_flight_m, b.altitude_flight_m));
  EXPECT_TRUE(same_bits(a.measurement_flight_m, b.measurement_flight_m));
  EXPECT_TRUE(same_bits(a.total_flight_m, b.total_flight_m));
  EXPECT_TRUE(same_bits(a.flight_time_s, b.flight_time_s));
  EXPECT_TRUE(same_bits(a.altitude_m, b.altitude_m));
  EXPECT_TRUE(same_bits(a.position.x, b.position.x));
  EXPECT_TRUE(same_bits(a.position.y, b.position.y));
  EXPECT_TRUE(same_bits(a.predicted_objective_snr_db, b.predicted_objective_snr_db));
  EXPECT_TRUE(same_bits(a.served_mean_throughput_bps, b.served_mean_throughput_bps));
  EXPECT_EQ(a.planned_k, b.planned_k);
  EXPECT_TRUE(same_bits(a.info_to_cost, b.info_to_cost));
}

TEST_F(ObsTest, DisabledModeIsBitIdenticalToInstrumentedRun) {
  ASSERT_FALSE(enabled());
  const core::EpochReport baseline = run_one_epoch();
  // Nothing was recorded while disabled.
  {
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    for (const auto& c : snap.counters) EXPECT_EQ(c.value, 0u) << c.name;
    for (const auto& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
    EXPECT_EQ(TraceJournal::instance().events().size(), 0u);
  }

  set_enabled(true);
  const core::EpochReport instrumented = run_one_epoch();
#ifndef SKYRAN_OBS_DISABLED
  // The instrumented run actually recorded the pipeline's key signals...
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("epoch.runs").value(), 1u);
  EXPECT_EQ(reg.counter("epoch.rem_cache.hit").value() +
                reg.counter("epoch.rem_cache.miss").value(),
            4u);
  EXPECT_GT(reg.counter("rem.planner.plans").value(), 0u);
  EXPECT_GT(reg.counter("rem.bank.cells_reestimated").value(), 0u);
  EXPECT_GT(reg.histogram("rem.fill.measured_fraction").count(), 0u);
  EXPECT_GT(reg.histogram("span.epoch.run.us").count(), 0u);
  EXPECT_GT(TraceJournal::instance().events().size(), 0u);
#endif

  // ...and still produced bit-identical outputs.
  expect_bit_identical(baseline, instrumented);
}

}  // namespace
}  // namespace skyran::obs

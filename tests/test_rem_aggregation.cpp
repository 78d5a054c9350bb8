// Tests for the temporal-aggregation semantics added on top of the basic
// REM: distance-reporting IDW, background source tracking, prior blending,
// and the budget-spending multi-round tours in SkyRan.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/skyran.hpp"
#include "geo/binio.hpp"
#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "kernels/kernels.hpp"
#include "mobility/deployment.hpp"
#include "rem/bank.hpp"
#include "rem/idw.hpp"
#include "rem/store.hpp"
#include "rf/channel.hpp"

namespace skyran {
namespace {

geo::Rect area100() { return geo::Rect::square(100.0); }

using Source = rem::RemBank::BackgroundSource;

/// One-UE bank over the 100 m square at 10 m cells and 50 m altitude.
rem::RemBank one_ue(geo::Vec3 ue, double cell = 10.0) {
  rem::RemBank bank(area100(), cell, 50.0);
  bank.add_ue(ue);
  return bank;
}

/// `bank`'s UE-0 estimate at `p` (estimates first).
double estimate_at(rem::RemBank& bank, geo::Vec2 p, const rem::IdwParams& params = {}) {
  bank.estimate_all(params);
  const geo::FieldView<const double> est = bank.estimate(0);
  return est.at(est.cell_of(p));
}

TEST(IdwDistanceTest, ReportsNearestSampleDistance) {
  rem::IdwInterpolator idw({{{10.0, 10.0}, 5.0}, {{90.0, 90.0}, 25.0}}, area100());
  const auto r = idw.estimate_with_distance({10.0, 20.0}, 4, 2.0, 1e9);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->nearest_m, 10.0, 1e-9);
  EXPECT_EQ(r->value, *idw.estimate({10.0, 20.0}, 4, 2.0, 1e9));
  const auto hit = idw.estimate_with_distance({90.0, 90.0}, 4, 2.0, 1e9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->nearest_m, 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(hit->value, 25.0);
}

TEST(BackgroundSourceTest, TracksProvenance) {
  rem::RemBank fresh = one_ue({50.0, 50.0, 1.5});
  EXPECT_EQ(fresh.background_source(0), Source::kNone);

  const rf::FsplChannel fspl(2.6e9);
  fresh.seed_from_model(0, fspl, rf::LinkBudget{});
  EXPECT_EQ(fresh.background_source(0), Source::kModel);

  rem::RemBank prior = one_ue({50.0, 50.0, 1.5});
  prior.add_measurement(0, {50.0, 50.0}, 7.0);
  rem::RemBank next = one_ue({52.0, 50.0, 1.5});
  next.seed_from(0, prior);
  EXPECT_EQ(next.background_source(0), Source::kPrior);
  // A prior-seeded prior stays a prior even without measurements.
  rem::RemBank after = one_ue({53.0, 50.0, 1.5});
  after.seed_from(0, next);
  EXPECT_EQ(after.background_source(0), Source::kPrior);
}

TEST(BackgroundSourceTest, ModelOnlyPriorStaysModel) {
  // Seeding from a prior that itself holds no measurements must not launder
  // an FSPL guess into "measured history".
  const rf::FsplChannel fspl(2.6e9);
  rem::RemBank model_only = one_ue({50.0, 50.0, 1.5});
  model_only.seed_from_model(0, fspl, rf::LinkBudget{});
  rem::RemBank next = one_ue({51.0, 50.0, 1.5});
  next.seed_from(0, model_only);
  EXPECT_EQ(next.background_source(0), Source::kModel);
}

TEST(PriorBlendTest, FreshDataWinsNearTour) {
  rem::RemBank prior = one_ue({50.0, 50.0, 1.5});
  prior.add_measurement(0, {50.0, 50.0}, 100.0);  // prior says 100 dB everywhere

  rem::RemBank current = one_ue({50.0, 50.0, 1.5});
  current.seed_from(0, prior);
  current.add_measurement(0, {15.0, 15.0}, 0.0);  // fresh tour says 0 here

  rem::IdwParams params;
  params.background_blend_m = 20.0;
  // Right next to the fresh measurement: fresh value dominates.
  EXPECT_LT(estimate_at(current, {18.0, 15.0}, params), 25.0);
  // Far corner: the prior dominates.
  EXPECT_GT(estimate_at(current, {95.0, 95.0}, params), 90.0);
}

TEST(PriorBlendTest, ModelBackgroundNotBlended) {
  const rf::FsplChannel fspl(2.6e9);
  rem::RemBank current = one_ue({50.0, 50.0, 1.5});
  current.seed_from_model(0, fspl, rf::LinkBudget{});
  current.add_measurement(0, {15.0, 15.0}, -50.0);
  // With a model background, interpolation alone fills the map: the far
  // corner equals the lone measurement, not an FSPL blend.
  EXPECT_DOUBLE_EQ(estimate_at(current, {95.0, 95.0}), -50.0);
}

TEST(PriorBlendTest, ZeroBlendDistanceDisables) {
  rem::RemBank prior = one_ue({50.0, 50.0, 1.5});
  prior.add_measurement(0, {50.0, 50.0}, 100.0);
  rem::RemBank current = one_ue({50.0, 50.0, 1.5});
  current.seed_from(0, prior);
  current.add_measurement(0, {15.0, 15.0}, 0.0);
  rem::IdwParams params;
  params.background_blend_m = 0.0;
  EXPECT_DOUBLE_EQ(estimate_at(current, {95.0, 95.0}, params), 0.0);
}

TEST(StorePersistenceTest, SaveLoadRoundTrip) {
  rem::RemStore store(10.0);
  rem::RemBank a = one_ue({20.0, 20.0, 1.5});
  a.add_measurement(0, {15.0, 15.0}, 3.0);
  a.add_measurement(0, {15.0, 15.0}, 5.0);  // averaged cell: sum 8, count 2
  a.add_measurement(0, {85.0, 85.0}, -7.0);
  store.put(a, 0);
  rem::RemBank b = one_ue({70.0, 70.0, 1.5});
  b.add_measurement(0, {70.0, 70.0}, 11.0);
  store.put(b, 0);

  std::stringstream ss;
  store.save(ss);
  const rem::RemStore loaded = rem::RemStore::load(ss);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.reuse_radius_m(), 10.0);
  const rem::RemBank* near = loaded.find_near({21.0, 20.0});
  ASSERT_NE(near, nullptr);
  EXPECT_DOUBLE_EQ(*near->measured_snr(0, {1, 1}), 4.0);  // (3+5)/2
  EXPECT_EQ(near->measurement_count(0, {1, 1}), 2);
  EXPECT_DOUBLE_EQ(near->altitude_m(), 50.0);
}

TEST(StorePersistenceTest, CorruptStreamRejected) {
  std::stringstream junk("definitely not a rem store");
  EXPECT_THROW(rem::RemStore::load(junk), std::runtime_error);
}

/// Build a store with randomized geometry and measurement contents.
rem::RemStore random_store(geo::Mt19937_64& rng) {
  std::uniform_real_distribution<double> radius(2.0, 25.0);
  std::uniform_int_distribution<int> n_entries(0, 5);
  std::uniform_int_distribution<int> n_meas(0, 40);
  rem::RemStore store(radius(rng));
  const double side = std::uniform_real_distribution<double>(40.0, 300.0)(rng);
  const double cell = std::uniform_real_distribution<double>(2.0, 15.0)(rng);
  const double alt = std::uniform_real_distribution<double>(30.0, 120.0)(rng);
  std::uniform_real_distribution<double> coord(0.0, side);
  std::uniform_real_distribution<double> snr(-60.0, 40.0);
  const geo::Rect area = geo::Rect::square(side);
  const rf::FsplChannel fspl(2.6e9);
  const rf::LinkBudget budget;
  for (int e = n_entries(rng); e > 0; --e) {
    rem::RemBank r(area, cell, alt);
    r.add_ue({coord(rng), coord(rng), 1.5});
    // Roughly half the entries carry a model-seeded background raster, the
    // way store entries produced by a real epoch do (put keeps the seeding);
    // the rest stay background-free.
    if (rng() % 2 == 0) r.seed_from_model(0, fspl, budget);
    for (int m = n_meas(rng); m > 0; --m)
      r.add_measurement(0, {coord(rng), coord(rng)}, snr(rng));
    store.put(r, 0);
  }
  return store;
}

TEST(StorePersistenceTest, RandomizedRoundTripPreservesEveryField) {
  geo::Mt19937_64 rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const rem::RemStore store = random_store(rng);
    std::stringstream ss;
    store.save(ss);
    const rem::RemStore loaded = rem::RemStore::load(ss);
    ASSERT_EQ(loaded.size(), store.size());
    EXPECT_DOUBLE_EQ(loaded.reuse_radius_m(), store.reuse_radius_m());
    for (std::size_t i = 0; i < store.size(); ++i) {
      const rem::RemBank& a = store.entries()[i];
      const rem::RemBank& b = loaded.entries()[i];
      ASSERT_TRUE(a.background(0).same_geometry(b.background(0)));
      ASSERT_EQ(b.background_source(0), a.background_source(0));
      for (std::size_t c = 0; c < a.cells_per_ue(); ++c)
        EXPECT_EQ(b.background(0)[c], a.background(0)[c]);  // bit-exact raster round-trip
      EXPECT_EQ(b.measured_cells(0), a.measured_cells(0));
      EXPECT_EQ(b.altitude_m(), a.altitude_m());
      EXPECT_EQ(b.ue_position(0).x, a.ue_position(0).x);
      EXPECT_EQ(b.ue_position(0).y, a.ue_position(0).y);
      EXPECT_EQ(b.ue_position(0).z, a.ue_position(0).z);
      for (int iy = 0; iy < a.ny(); ++iy)
        for (int ix = 0; ix < a.nx(); ++ix) {
          const geo::CellIndex c{ix, iy};
          EXPECT_EQ(b.measurement_count(0, c), a.measurement_count(0, c));
          const auto sa = a.measured_snr(0, c);
          const auto sb = b.measured_snr(0, c);
          ASSERT_EQ(sb.has_value(), sa.has_value());
          if (sa) {
            EXPECT_EQ(*sb, *sa);  // bit-exact: doubles round-trip as raw bytes
          }
        }
    }
    // A reloaded store must behave identically, not just compare equal:
    // the rebuilt spatial index answers find_near the same way.
    std::uniform_real_distribution<double> probe(0.0, 100.0);
    for (int q = 0; q < 20; ++q) {
      const geo::Vec2 p{probe(rng), probe(rng)};
      const rem::RemBank* ha = store.find_near(p);
      const rem::RemBank* hb = loaded.find_near(p);
      ASSERT_EQ(ha != nullptr, hb != nullptr);
      if (ha != nullptr) {
        EXPECT_EQ(hb->ue_position(0).x, ha->ue_position(0).x);
      }
    }
  }
}

TEST(StorePersistenceTest, TruncatedStreamRejectedAtEveryLength) {
  const rem::RemStore store = [&] {
    rem::RemStore s(8.0);
    rem::RemBank r = one_ue({20.0, 20.0, 1.5});
    r.add_measurement(0, {15.0, 15.0}, 3.0);
    r.add_measurement(0, {85.0, 85.0}, -7.0);
    s.put(r, 0);
    return s;
  }();
  std::stringstream full;
  store.save(full);
  const std::string bytes = full.str();
  ASSERT_GT(bytes.size(), 16u);
  // Every proper prefix must be rejected, never parsed as a shorter store.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream cut(bytes.substr(0, len));
    EXPECT_THROW(rem::RemStore::load(cut), std::runtime_error) << "prefix length " << len;
  }
}

TEST(StorePersistenceTest, EveryByteFlipAnywhereInStreamRejected) {
  // The CRC envelope (shared with core::Snapshot via geo/binio.hpp) makes
  // single-byte corruption detectable ANYWHERE in the stream, not just in
  // the header: magic/version flips fail structurally, size-field flips
  // fail as truncation or CRC mismatch, payload and CRC flips fail the
  // checksum. Exhaustive over every position, with a couple of flip masks.
  const rem::RemStore store = [&] {
    rem::RemStore s(8.0);
    rem::RemBank r = one_ue({20.0, 20.0, 1.5});
    r.add_measurement(0, {15.0, 15.0}, 3.0);
    r.add_measurement(0, {85.0, 85.0}, -7.0);
    s.put(r, 0);
    return s;
  }();
  std::stringstream full;
  store.save(full);
  const std::string bytes = full.str();
  for (const unsigned char mask : {0x5a, 0x01, 0x80}) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      std::stringstream corrupt(bad);
      EXPECT_THROW(rem::RemStore::load(corrupt), geo::BinFormatError)
          << "flip at " << pos << " mask " << int(mask);
    }
  }
}

TEST(StorePersistenceTest, RejectionErrorsAreTyped) {
  const rem::RemStore store = [&] {
    rem::RemStore s(8.0);
    rem::RemBank r = one_ue({20.0, 20.0, 1.5});
    r.add_measurement(0, {15.0, 15.0}, 3.0);
    s.put(r, 0);
    return s;
  }();
  std::stringstream full;
  store.save(full);
  const std::string bytes = full.str();
  {
    std::stringstream bad(bytes.substr(0, bytes.size() - 3));
    EXPECT_THROW(rem::RemStore::load(bad), geo::BinTruncatedError);
  }
  {
    std::string v = bytes;
    v[4] = static_cast<char>(v[4] ^ 0x10);  // version field
    std::stringstream bad(v);
    EXPECT_THROW(rem::RemStore::load(bad), geo::BinVersionError);
  }
  {
    std::string p = bytes;
    p[bytes.size() - 2] = static_cast<char>(p[bytes.size() - 2] ^ 0x5a);  // payload
    std::stringstream bad(p);
    EXPECT_THROW(rem::RemStore::load(bad), geo::BinCorruptError);
  }
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(StorePersistenceTest, V2BytesPinned) {
  // One entry per background provenance (none, model, prior). The digest
  // pins the v2 byte layout that stores inside on-disk snapshot generations
  // carry: any change to what save() writes must fail here first. Scalar
  // kernels: the SIMD tolerance kernels may move the last bits.
  const kernels::ScopedScalarKernels scalar;
  const geo::Rect area = area100();
  const rf::FsplChannel fspl(2.6e9);
  const rf::LinkBudget budget;
  rem::RemStore history(10.0);
  {
    rem::RemBank prior(area, 10.0, 50.0);
    prior.add_ue({80.0, 20.0, 1.5});
    prior.add_measurement(0, {75.0, 25.0}, 6.5);
    prior.add_measurement(0, {35.0, 65.0}, -4.25);
    history.put(prior, 0);
  }
  rem::RemBank bank(area, 10.0, 50.0);
  bank.add_ue({20.0, 20.0, 1.5});
  bank.add_ue({50.0, 80.0, 1.5});
  bank.seed_from_model(1, fspl, budget);
  bank.add_ue({82.0, 21.0, 1.5});
  history.seed_bank_ue(bank, 2, fspl, budget);
  bank.add_measurement(0, {15.0, 15.0}, 3.0);
  bank.add_measurement(0, {15.0, 15.0}, 5.0);
  bank.add_measurement(0, {85.0, 85.0}, -7.0);
  bank.add_measurement(1, {45.0, 75.0}, 1.0 / 3.0);
  bank.add_measurement(2, {70.0, 30.0}, 12.0);
  bank.add_measurement(2, {72.0, 31.0}, 2.5);

  rem::RemStore store(10.0);
  for (std::size_t i = 0; i < bank.ue_count(); ++i) store.put(bank, i);
  ASSERT_EQ(store.size(), 3u);
  std::stringstream ss;
  store.save(ss);
  const std::string bytes = ss.str();
  EXPECT_EQ(bytes.size(), 1943u);
  EXPECT_EQ(fnv1a(bytes), 0xfb6571abcbabf13dULL);
  // The pinned bytes load, and re-save to the same bytes.
  std::stringstream in(bytes);
  std::stringstream again;
  rem::RemStore::load(in).save(again);
  EXPECT_EQ(again.str(), bytes);
}

/// Fields of a one-entry v2 store payload, valid by default: a 10 x 10
/// raster with one measured cell and no background.
struct EntryFields {
  double radius = 10.0;
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 100.0;
  double max_y = 100.0;
  double cell = 10.0;
  double altitude = 50.0;
  geo::Vec3 ue{20.0, 20.0, 1.5};
  std::uint32_t n_cells = 1;
  std::int32_t ix = 1;
  std::int32_t iy = 1;
  std::int32_t count = 2;
};

/// The fields in RemStore's v2 layout inside a valid CRC envelope, so only
/// the loader's field validation can reject them.
std::string store_bytes(const EntryFields& f) {
  geo::BinWriter w;
  w.pod(f.radius);
  w.pod(std::uint32_t{1});
  for (const double v : {f.min_x, f.min_y, f.max_x, f.max_y, f.cell, f.altitude, f.ue.x,
                         f.ue.y, f.ue.z})
    w.pod(v);
  w.pod(f.n_cells);
  w.pod(f.ix);
  w.pod(f.iy);
  w.pod(8.0);  // sum
  w.pod(f.count);
  w.pod(std::uint8_t{0});  // no background
  std::stringstream ss;
  const char magic[4] = {'S', 'K', 'Y', 'R'};
  geo::write_envelope(ss, magic, 2, w);
  return ss.str();
}

TEST(StorePersistenceTest, BadFieldsRejectedAsCorrupt) {
  {
    std::stringstream ok(store_bytes({}));
    const rem::RemStore store = rem::RemStore::load(ok);
    ASSERT_EQ(store.size(), 1u);
    EXPECT_EQ(*store.entries()[0].measured_snr(0, {1, 1}), 4.0);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<const char*, EntryFields>> bad;
  const auto add = [&](const char* what, auto&& mutate) {
    EntryFields f;
    mutate(f);
    bad.emplace_back(what, f);
  };
  add("zero radius", [](EntryFields& f) { f.radius = 0.0; });
  add("negative radius", [](EntryFields& f) { f.radius = -3.0; });
  add("NaN radius", [&](EntryFields& f) { f.radius = nan; });
  add("infinite radius", [&](EntryFields& f) { f.radius = inf; });
  add("zero cell size", [](EntryFields& f) { f.cell = 0.0; });
  add("negative cell size", [](EntryFields& f) { f.cell = -10.0; });
  add("NaN cell size", [&](EntryFields& f) { f.cell = nan; });
  add("infinite cell size", [&](EntryFields& f) { f.cell = inf; });
  add("tiny cell size", [](EntryFields& f) { f.cell = 1e-300; });
  add("zero altitude", [](EntryFields& f) { f.altitude = 0.0; });
  add("NaN altitude", [&](EntryFields& f) { f.altitude = nan; });
  add("infinite altitude", [&](EntryFields& f) { f.altitude = inf; });
  add("empty area", [](EntryFields& f) { f.max_x = f.min_x; });
  add("inverted area", [](EntryFields& f) { f.max_y = -5.0; });
  add("NaN area", [&](EntryFields& f) { f.min_x = nan; });
  add("unbounded area", [&](EntryFields& f) { f.max_x = inf; });
  add("NaN UE position", [&](EntryFields& f) { f.ue.y = nan; });
  add("measured cells above raster", [](EntryFields& f) { f.n_cells = 101; });
  add("cell index past the raster", [](EntryFields& f) { f.ix = 999; });
  add("negative cell index", [](EntryFields& f) { f.iy = -1; });
  add("count zero", [](EntryFields& f) { f.count = 0; });
  add("negative count", [](EntryFields& f) { f.count = -4; });
  for (const auto& [what, fields] : bad) {
    std::stringstream in(store_bytes(fields));
    EXPECT_THROW(rem::RemStore::load(in), geo::BinCorruptError) << what;
  }
}

TEST(MultiRoundBudgetTest, EpochSpendsMostOfTheBudget) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = 51;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 5, 52);
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 900.0;
  cfg.localization_mode = core::LocalizationMode::kPerfect;
  core::SkyRan skyran(world, cfg, 53);
  const core::EpochReport r = skyran.run_epoch();
  // The multi-round loop keeps flying until < max(60, 10%) of budget is left.
  EXPECT_GT(r.measurement_flight_m, 0.75 * cfg.measurement_budget_m);
  EXPECT_LE(r.measurement_flight_m, cfg.measurement_budget_m + 1e-6);
}

TEST(MultiRoundBudgetTest, UnconstrainedModeFliesOneTour) {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = 54;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 5, 55);
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 0.0;  // unconstrained: single best-ratio tour
  cfg.localization_mode = core::LocalizationMode::kPerfect;
  core::SkyRan skyran(world, cfg, 56);
  const core::EpochReport r = skyran.run_epoch();
  EXPECT_GT(r.measurement_flight_m, 0.0);
  EXPECT_LT(r.measurement_flight_m, 2500.0);  // one tour, not an endless loop
}

}  // namespace
}  // namespace skyran

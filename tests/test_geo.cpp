// Unit tests for the geo foundation module: vectors, rectangles, grids,
// paths, statistics and the value-noise field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <random>
#include <span>
#include <sstream>
#include <string>

#include "geo/contract.hpp"
#include "geo/grid.hpp"
#include "geo/mt19937.hpp"
#include "geo/noise.hpp"
#include "geo/path.hpp"
#include "geo/rect.hpp"
#include "geo/stats.hpp"
#include "geo/vec.hpp"

namespace skyran::geo {
namespace {

TEST(Vec2Test, ArithmeticWorks) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(a / 2.0, Vec2(0.5, 1.0));
}

TEST(Vec2Test, NormAndDistance) {
  EXPECT_DOUBLE_EQ(Vec2(3.0, 4.0).norm(), 5.0);
  EXPECT_DOUBLE_EQ(Vec2(1.0, 1.0).dist({4.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Vec2(2.0, 3.0).dot({4.0, 5.0}), 23.0);
}

TEST(Vec2Test, NormalizedHandlesZero) {
  EXPECT_EQ(Vec2().normalized(), Vec2());
  const Vec2 u = Vec2(0.0, 5.0).normalized();
  EXPECT_DOUBLE_EQ(u.norm(), 1.0);
  EXPECT_DOUBLE_EQ(u.y, 1.0);
}

TEST(Vec3Test, ArithmeticAndProjection) {
  const Vec3 a{1.0, 2.0, 3.0};
  EXPECT_EQ(a.xy(), Vec2(1.0, 2.0));
  EXPECT_DOUBLE_EQ(Vec3(2.0, 3.0, 6.0).norm(), 7.0);
  EXPECT_EQ(Vec3(Vec2{4.0, 5.0}, 6.0), Vec3(4.0, 5.0, 6.0));
}

TEST(RectTest, ContainsAndClamp) {
  const Rect r = Rect::square(100.0);
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_TRUE(r.contains({100.0, 100.0}));
  EXPECT_FALSE(r.contains({-0.1, 50.0}));
  EXPECT_EQ(r.clamp({-5.0, 120.0}), Vec2(0.0, 100.0));
  EXPECT_EQ(r.center(), Vec2(50.0, 50.0));
  EXPECT_DOUBLE_EQ(r.area(), 10000.0);
}

TEST(RectTest, InflatedGrowsAndShrinks) {
  const Rect r = Rect::square(100.0);
  EXPECT_DOUBLE_EQ(r.inflated(10.0).width(), 120.0);
  EXPECT_DOUBLE_EQ(r.inflated(-10.0).width(), 80.0);
  EXPECT_THROW(r.inflated(-60.0), ContractViolation);
}

TEST(RectTest, RejectsInvertedBounds) {
  EXPECT_THROW(Rect({10.0, 0.0}, {0.0, 10.0}), ContractViolation);
}

TEST(Grid2DTest, DimensionsFromAreaAndCellSize) {
  const Grid2D<int> g(Rect::square(100.0), 10.0);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 10);
  EXPECT_EQ(g.size(), 100u);
}

TEST(Grid2DTest, PartialEdgeCellsIncluded) {
  const Grid2D<int> g(Rect::square(95.0), 10.0);
  EXPECT_EQ(g.nx(), 10);  // 9 full cells + 1 partial
}

TEST(Grid2DTest, CellOfAndCenterRoundTrip) {
  const Grid2D<int> g(Rect::square(100.0), 10.0);
  const CellIndex c = g.cell_of({37.0, 92.0});
  EXPECT_EQ(c, (CellIndex{3, 9}));
  EXPECT_EQ(g.center_of(c), Vec2(35.0, 95.0));
  // Boundary point maps to the last cell, not out of range.
  EXPECT_EQ(g.cell_of({100.0, 100.0}), (CellIndex{9, 9}));
}

TEST(Grid2DTest, OutOfBoundsThrows) {
  Grid2D<int> g(Rect::square(10.0), 1.0);
  EXPECT_THROW(g.at(10, 0), ContractViolation);
  EXPECT_THROW(g.at(0, -1), ContractViolation);
  EXPECT_THROW(g.cell_of({11.0, 0.0}), ContractViolation);
}

TEST(Grid2DTest, ValueMutationThroughAt) {
  Grid2D<double> g(Rect::square(10.0), 1.0, 1.5);
  g.at(3, 4) = 7.0;
  EXPECT_DOUBLE_EQ(g.at(3, 4), 7.0);
  EXPECT_DOUBLE_EQ(g.value_at({3.5, 4.5}), 7.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 1.5);
}

TEST(Grid2DTest, MapTransformsEveryCell) {
  Grid2D<int> g(Rect::square(4.0), 1.0, 2);
  const Grid2D<double> h = g.map([](int v) { return v * 1.5; });
  EXPECT_TRUE(g.same_geometry(h));
  EXPECT_DOUBLE_EQ(h.at(2, 2), 3.0);
}

TEST(Grid2DTest, SameGeometryDetectsMismatch) {
  const Grid2D<int> a(Rect::square(10.0), 1.0);
  const Grid2D<int> b(Rect::square(10.0), 2.0);
  const Grid2D<int> c(Rect::square(20.0), 1.0);
  EXPECT_FALSE(a.same_geometry(b));
  EXPECT_FALSE(a.same_geometry(c));
  EXPECT_TRUE(a.same_geometry(Grid2D<int>(Rect::square(10.0), 1.0)));
}

TEST(Grid2DTest, ForEachVisitsAllCellsOnce) {
  Grid2D<int> g(Rect::square(6.0), 2.0);
  int count = 0;
  g.for_each([&](CellIndex, int& v) {
    v = ++count;
  });
  EXPECT_EQ(count, 9);
  EXPECT_EQ(g.at(2, 2), 9);
}

TEST(PathTest, LengthOfPolyline) {
  const Path p({{0.0, 0.0}, {3.0, 0.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(p.length(), 7.0);
  EXPECT_DOUBLE_EQ(Path().length(), 0.0);
  EXPECT_DOUBLE_EQ(Path({{1.0, 1.0}}).length(), 0.0);
}

TEST(PathTest, PointAtWalksTheArc) {
  const Path p({{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}});
  EXPECT_EQ(p.point_at(0.0), Vec2(0.0, 0.0));
  EXPECT_EQ(p.point_at(5.0), Vec2(5.0, 0.0));
  EXPECT_EQ(p.point_at(15.0), Vec2(10.0, 5.0));
  EXPECT_EQ(p.point_at(100.0), Vec2(10.0, 10.0));  // clamped
}

TEST(PathTest, ResampledPreservesEndpointsAndSpacing) {
  const Path p({{0.0, 0.0}, {10.0, 0.0}});
  const Path r = p.resampled(3.0);
  ASSERT_GE(r.size(), 2u);
  EXPECT_EQ(r.points().front(), Vec2(0.0, 0.0));
  EXPECT_EQ(r.points().back(), Vec2(10.0, 0.0));
  for (std::size_t i = 1; i + 1 < r.size(); ++i)
    EXPECT_NEAR(r.points()[i].dist(r.points()[i - 1]), 3.0, 1e-9);
}

TEST(PathTest, DistanceToSegments) {
  const Path p({{0.0, 0.0}, {10.0, 0.0}});
  EXPECT_DOUBLE_EQ(p.distance_to({5.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(p.distance_to({-3.0, 4.0}), 5.0);  // beyond endpoint
  EXPECT_DOUBLE_EQ(Path({{2.0, 2.0}}).distance_to({2.0, 5.0}), 3.0);
}

TEST(PathTest, MeanDistanceBetweenParallelLines) {
  const Path a({{0.0, 0.0}, {100.0, 0.0}});
  const Path b({{0.0, 10.0}, {100.0, 10.0}});
  EXPECT_NEAR(a.mean_distance_to(b, 5.0), 10.0, 1e-9);
  EXPECT_NEAR(a.mean_distance_to(a, 5.0), 0.0, 1e-9);
}

TEST(PathTest, PointSegmentDistanceEdgeCases) {
  EXPECT_DOUBLE_EQ(point_segment_distance({0.0, 1.0}, {0.0, 0.0}, {0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(point_segment_distance({5.0, 5.0}, {0.0, 0.0}, {10.0, 0.0}), 5.0);
}

TEST(StatsTest, Mean) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(StatsTest, PercentileUnsortedInput) {
  const std::vector<double> xs{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(StatsTest, PercentileSortedEmptyContractAndParity) {
  // The explicit empty-input contract: percentile_sorted yields 0.0 where
  // percentile (sort-copy + delegate) throws. Aggregate-report assembly
  // (lte::TrafficPlane percentile fields) depends on the 0.0 branch.
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_THROW(percentile_sorted({}, 1.5), ContractViolation);
  // Randomized parity: on any sorted sample the two entry points agree
  // bit-for-bit at arbitrary probabilities (one shared implementation).
  geo::Mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  std::uniform_real_distribution<double> prob(0.0, 1.0);
  std::uniform_int_distribution<int> size(1, 64);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> xs(static_cast<std::size_t>(size(rng)));
    for (double& x : xs) x = value(rng);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    const double p = prob(rng);
    EXPECT_DOUBLE_EQ(percentile(xs, p), percentile_sorted(sorted, p));
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), sorted.back());
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), sorted.front());
  }
}

// Selection must pick the same two order statistics a full sort does, so
// percentile_inplace equals sort + percentile_sorted exactly: small and large
// samples, planted ties, all-equal input, the end points, and successive
// calls on one (already permuted) buffer.
TEST(StatsTest, PercentileInplaceMatchesSortOracle) {
  const std::vector<double> probs{0.0, 0.05, 0.5, 0.95, 1.0};
  const auto check = [&](const std::vector<double>& xs, const char* what) {
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> buf = xs;  // shared by every p, as the campaign hour does
    for (double p : probs) {
      std::vector<double> fresh = xs;
      EXPECT_EQ(percentile_inplace(fresh, p), percentile_sorted(sorted, p))
          << what << " n=" << xs.size() << " p=" << p;
      EXPECT_EQ(percentile_inplace(buf, p), percentile_sorted(sorted, p))
          << what << " (reused buffer) n=" << xs.size() << " p=" << p;
      EXPECT_EQ(percentile(xs, p), percentile_sorted(sorted, p)) << what;
    }
    std::vector<double> permuted = buf;
    std::sort(permuted.begin(), permuted.end());
    EXPECT_EQ(permuted, sorted) << what << ": selection changed the values";
  };
  check({4.5}, "n=1");
  check({3.0, -1.0}, "n=2");
  check({2.0, 9.0, -4.0}, "n=3");
  check({7.0, 7.0, 7.0, 7.0, 7.0}, "all equal");

  geo::Mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> value(0.0, 5e6);
  std::vector<double> xs(8000);
  for (double& x : xs) x = value(rng);
  check(xs, "n=8000");
  // Planted ties: a run of zeros (idle UEs) and repeated values around
  // every rank the probabilities select.
  for (std::size_t i = 0; i < 900; ++i) xs[i * 7] = 0.0;
  for (std::size_t i = 0; i < 400; ++i) xs[i * 19 + 3] = 1.25e6;
  std::shuffle(xs.begin(), xs.end(), rng);
  check(xs, "n=8000 ties");
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> small(static_cast<std::size_t>(1 + trial % 17));
    for (double& x : small) x = std::floor(value(rng) / 1e6);  // few distinct values
    check(small, "small ties");
  }
}

TEST(StatsTest, PercentileContractViolations) {
  EXPECT_THROW(percentile({}, 0.5), ContractViolation);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, 1.5), ContractViolation);
  EXPECT_THROW(percentile(xs, -0.1), ContractViolation);
}

TEST(StatsTest, EmpiricalCdfIsMonotone) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  const auto cdf = empirical_cdf(xs, 11);
  ASSERT_EQ(cdf.size(), 11u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].probability, cdf[i - 1].probability);
  }
}

TEST(NoiseTest, DeterministicInSeed) {
  const ValueNoise a(42, 30.0);
  const ValueNoise b(42, 30.0);
  const ValueNoise c(43, 30.0);
  EXPECT_DOUBLE_EQ(a.sample({12.3, 45.6}), b.sample({12.3, 45.6}));
  EXPECT_NE(a.sample({12.3, 45.6}), c.sample({12.3, 45.6}));
}

TEST(NoiseTest, BoundedRoughlyUnit) {
  const ValueNoise n(7, 20.0);
  for (int i = 0; i < 200; ++i) {
    const double v = n.sample({i * 3.7, i * 1.3});
    EXPECT_GE(v, -1.5);
    EXPECT_LE(v, 1.5);
  }
}

TEST(NoiseTest, SpatiallyContinuous) {
  const ValueNoise n(7, 30.0);
  // Adjacent samples (10 cm apart vs 30 m correlation) stay close.
  const double a = n.sample({100.0, 100.0});
  const double b = n.sample({100.1, 100.0});
  EXPECT_LT(std::abs(a - b), 0.05);
}

TEST(NoiseTest, RejectsBadParameters) {
  EXPECT_THROW(ValueNoise(1, 0.0), ContractViolation);
  EXPECT_THROW(ValueNoise(1, 10.0, 0), ContractViolation);
  EXPECT_THROW(ValueNoise(1, 10.0, 4, 0.0), ContractViolation);
}

// Mt19937_64 against std::mt19937_64, its oracle: the same words and the
// same text state.

/// An engine's text state.
template <class Engine>
std::string text_state(const Engine& g) {
  std::ostringstream os;
  os << g;
  return os.str();
}

TEST(Mt19937Test, OutputsMatchTheStandardEngine) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
                                   ~std::uint64_t{0}}) {
    std::mt19937_64 want(seed);
    Mt19937_64 got(seed);
    for (int i = 0; i < 1000000; ++i)
      ASSERT_EQ(got(), want()) << "seed " << seed << " word " << i;
  }
  std::mt19937_64 want;
  Mt19937_64 got;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(got(), want()) << "default seed, word " << i;
}

TEST(Mt19937Test, BlockViewIsTheNextWordsAndAdvanceSkipsThem) {
  std::mt19937_64 want(7);
  Mt19937_64 got(7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(got(), want());
  const std::span<const std::uint64_t> block = got.block();
  ASSERT_EQ(block.size(), Mt19937_64::kBlockWords - 100);
  for (const std::uint64_t w : block) ASSERT_EQ(w, want());
  got.advance(block.size());
  EXPECT_EQ(text_state(got), text_state(want));
  EXPECT_EQ(got.block().size(), Mt19937_64::kBlockWords);  // the next block
  EXPECT_EQ(got(), want());
}

TEST(Mt19937Test, TextStateIsTheStandardEnginesByteForByte) {
  std::mt19937_64 want(42);
  Mt19937_64 got(42);
  EXPECT_EQ(text_state(got), text_state(want));  // index 312: before the first twist
  for (int i = 0; i < 100; ++i) got(), want();
  EXPECT_EQ(text_state(got), text_state(want));  // mid-block
  for (int i = 0; i < 212; ++i) got(), want();
  EXPECT_EQ(text_state(got), text_state(want));  // index 312 again: block spent

  // Index 0 (a block not yet read) is reachable only through the text.
  std::string at_zero = text_state(want);
  at_zero.replace(at_zero.rfind(' ') + 1, std::string::npos, "0");
  std::istringstream(at_zero) >> want;
  std::istringstream is(at_zero);
  ASSERT_TRUE(is >> got);
  EXPECT_EQ(text_state(got), at_zero);
  EXPECT_EQ(text_state(want), at_zero);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(got(), want()) << "word " << i;

  // The caller's stream formatting is restored.
  std::ostringstream os;
  os << std::hex << std::setfill('*') << got;
  EXPECT_EQ(os.flags() & std::ios_base::basefield, std::ios_base::hex);
  EXPECT_EQ(os.fill(), '*');
}

TEST(Mt19937Test, ReadingStandardTextContinuesItsStream) {
  for (const int drawn : {0, 1, 311, 312, 313, 1000}) {
    std::mt19937_64 want(99);
    for (int i = 0; i < drawn; ++i) want();
    Mt19937_64 got(1);
    std::istringstream is(text_state(want));
    ASSERT_TRUE(is >> got) << drawn;
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(got(), want()) << drawn << " word " << i;
  }
}

TEST(Mt19937Test, MalformedTextSetsFailbitAndLeavesTheEngine) {
  Mt19937_64 g(3);
  g();
  const std::string before = text_state(g);
  std::string index_313 = before;
  index_313.replace(index_313.rfind(' ') + 1, std::string::npos, "313");
  const std::string truncated = before.substr(0, before.size() / 2);
  for (const std::string& text : {std::string("not an engine"), truncated, index_313}) {
    std::istringstream is(text);
    is >> g;
    EXPECT_TRUE(is.fail()) << text.substr(0, 40);
    EXPECT_EQ(text_state(g), before);
  }
}

/// Property sweep: grid round-trips hold across cell sizes.
class GridRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(GridRoundTrip, CenterOfCellOfIsIdentityOnCenters) {
  const double cell = GetParam();
  const Grid2D<int> g(Rect::square(50.0), cell);
  for (int iy = 0; iy < g.ny(); ++iy) {
    for (int ix = 0; ix < g.nx(); ix += 3) {
      const CellIndex c{ix, iy};
      const Vec2 center = g.center_of(c);
      if (!g.area().contains(center)) continue;  // partial edge cell
      EXPECT_EQ(g.cell_of(center), c) << "cell=" << cell;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridRoundTrip,
                         ::testing::Values(0.5, 1.0, 2.5, 4.0, 7.0, 10.0));

/// Property sweep: resampling never changes total path endpoints and the
/// resampled length converges to the original.
class PathResample : public ::testing::TestWithParam<double> {};

TEST_P(PathResample, LengthPreservedWithinSpacing) {
  const Path p({{0.0, 0.0}, {20.0, 5.0}, {40.0, 0.0}, {40.0, 30.0}});
  const Path r = p.resampled(GetParam());
  EXPECT_NEAR(r.length(), p.length(), GetParam());
  EXPECT_EQ(r.points().front(), p.points().front());
  EXPECT_EQ(r.points().back(), p.points().back());
}

INSTANTIATE_TEST_SUITE_P(Spacings, PathResample, ::testing::Values(0.5, 1.0, 3.0, 10.0));

}  // namespace
}  // namespace skyran::geo

// Tests for ordinary kriging and variogram fitting.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "geo/noise.hpp"
#include "rem/kriging.hpp"

namespace skyran::rem {
namespace {

TEST(VariogramTest, ShapeProperties) {
  const Variogram v{1.0, 10.0, 30.0};
  EXPECT_DOUBLE_EQ(v(0.0), 0.0);  // by convention gamma(0) = 0
  EXPECT_NEAR(v(1e9), 11.0, 1e-6);  // sill + nugget at infinity
  // Monotone increasing.
  double prev = 0.0;
  for (double h = 1.0; h < 200.0; h += 10.0) {
    EXPECT_GE(v(h), prev);
    prev = v(h);
  }
}

TEST(VariogramTest, FitRecoversCorrelationLength) {
  // Samples from a smooth correlated field: the fitted range must land in
  // the right ballpark (same order as the field's correlation length).
  const geo::ValueNoise field(7, 40.0, 3);
  std::vector<IdwSample> samples;
  geo::Mt19937_64 rng(8);
  std::uniform_real_distribution<double> u(0.0, 300.0);
  for (int i = 0; i < 400; ++i) {
    const geo::Vec2 p{u(rng), u(rng)};
    samples.push_back({p, 10.0 * field.sample(p)});
  }
  const Variogram v = fit_variogram(samples);
  EXPECT_GT(v.range_m, 10.0);
  EXPECT_LT(v.range_m, 130.0);
  EXPECT_GT(v.sill, 0.0);
}

TEST(VariogramTest, FallsBackOnTinyInput) {
  const Variogram def;
  const Variogram v = fit_variogram({{{0.0, 0.0}, 1.0}, {{1.0, 1.0}, 2.0}});
  EXPECT_DOUBLE_EQ(v.range_m, def.range_m);
  EXPECT_THROW(fit_variogram({}, -1.0), ContractViolation);
  EXPECT_THROW(fit_variogram({}, 10.0, 2), ContractViolation);
}

TEST(KrigingTest, ExactInterpolatorAtSamples) {
  const std::vector<IdwSample> samples{
      {{10.0, 10.0}, 5.0}, {{50.0, 80.0}, -3.0}, {{90.0, 20.0}, 12.0}};
  const KrigingInterpolator k(samples, geo::Rect::square(100.0), Variogram{});
  for (const IdwSample& s : samples)
    EXPECT_NEAR(*k.estimate(s.position), s.value, 1e-6);
}

TEST(KrigingTest, InterpolatesBetweenTwoSamples) {
  const std::vector<IdwSample> samples{{{0.0, 50.0}, 0.0}, {{100.0, 50.0}, 10.0}};
  const KrigingInterpolator k(samples, geo::Rect::square(100.0), Variogram{0.0, 10.0, 50.0});
  const double mid = *k.estimate({50.0, 50.0});
  EXPECT_NEAR(mid, 5.0, 0.5);  // symmetric neighbors: midpoint value
}

TEST(KrigingTest, WeightsSumToOneImpliesConstantFieldExact) {
  // Ordinary kriging reproduces a constant field exactly (the unbiasedness
  // constraint) - unlike plain IDW with a background.
  std::vector<IdwSample> samples;
  geo::Mt19937_64 rng(9);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  for (int i = 0; i < 30; ++i) samples.push_back({{u(rng), u(rng)}, 7.25});
  const KrigingInterpolator k(samples, geo::Rect::square(100.0), Variogram{});
  for (const geo::Vec2 q : {geo::Vec2{3.0, 97.0}, geo::Vec2{55.0, 44.0}})
    EXPECT_NEAR(*k.estimate(q), 7.25, 1e-6);
}

TEST(KrigingTest, EmptyAndRadius) {
  const KrigingInterpolator empty({}, geo::Rect::square(100.0), Variogram{});
  EXPECT_FALSE(empty.estimate({50.0, 50.0}).has_value());
  const KrigingInterpolator one({{{0.0, 0.0}, 4.0}}, geo::Rect::square(100.0), Variogram{});
  EXPECT_FALSE(one.estimate({90.0, 90.0}, 8, 20.0).has_value());
  EXPECT_DOUBLE_EQ(*one.estimate({5.0, 5.0}, 8, 20.0), 4.0);
}

TEST(KrigingTest, SmoothFieldAccuracyComparableToIdw) {
  const geo::ValueNoise field(11, 35.0, 3);
  std::vector<IdwSample> samples;
  geo::Mt19937_64 rng(12);
  std::uniform_real_distribution<double> u(0.0, 200.0);
  for (int i = 0; i < 250; ++i) {
    const geo::Vec2 p{u(rng), u(rng)};
    samples.push_back({p, 8.0 * field.sample(p)});
  }
  const Variogram v = fit_variogram(samples);
  const KrigingInterpolator kriging(samples, geo::Rect::square(200.0), v);
  const IdwInterpolator idw(samples, geo::Rect::square(200.0));
  double k_err = 0.0;
  double i_err = 0.0;
  int n = 0;
  for (double x = 5.0; x < 200.0; x += 13.0) {
    for (double y = 5.0; y < 200.0; y += 13.0) {
      const double truth = 8.0 * field.sample({x, y});
      k_err += std::abs(*kriging.estimate({x, y}) - truth);
      i_err += std::abs(*idw.estimate({x, y}, 8, 2.0, 1e9) - truth);
      ++n;
    }
  }
  // Kriging must be in the same accuracy class (within 30%) as IDW here.
  EXPECT_LT(k_err / n, 1.3 * i_err / n + 0.1);
}

}  // namespace
}  // namespace skyran::rem

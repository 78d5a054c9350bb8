// Scalar-vs-SIMD parity for the kernels layer: EXACT kernels must be
// bit-identical at every level, TOLERANCE kernels must stay within the
// bounds documented in src/kernels/kernels.hpp. Every check runs the same
// inputs through ScopedSimdMode(kOff) and the best available level.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <vector>

#include "kernels/kernels.hpp"
#include "rf/models.hpp"

namespace skyran::kernels {
namespace {

constexpr double kRelTol = 1e-12;   // reassociated reductions
constexpr double kDbAbsTol = 1e-9;  // polynomial log10, after the 20x scale

bool simd_available() { return resolve_mode(SimdMode::kAuto) != SimdLevel::kScalar; }

std::vector<Cplx> random_cplx(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-3.0, 3.0);
  std::vector<Cplx> v(n);
  for (Cplx& c : v) c = {d(rng), d(rng)};
  return v;
}

std::vector<double> random_doubles(std::size_t n, double lo, double hi, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 17, 256, 1023};

TEST(KernelDispatch, ScalarAlwaysAvailableAndOffForcesIt) {
  EXPECT_TRUE(level_available(SimdLevel::kScalar));
  EXPECT_EQ(resolve_mode(SimdMode::kOff), SimdLevel::kScalar);
  ScopedSimdMode off(SimdMode::kOff);
  EXPECT_EQ(active_level(), SimdLevel::kScalar);
}

TEST(KernelDispatch, ScopedModeRestoresPreviousLevel) {
  const SimdLevel before = active_level();
  {
    ScopedSimdMode off(SimdMode::kOff);
    EXPECT_EQ(active_level(), SimdLevel::kScalar);
  }
  EXPECT_EQ(active_level(), before);
}

TEST(KernelDispatch, UnsupportedRequestClampsToAvailable) {
  // Requesting a level the CPU/build lacks must fall back to something the
  // machine can actually run, never crash into illegal instructions.
  const SimdLevel avx2 = resolve_mode(SimdMode::kAvx2);
  const SimdLevel neon = resolve_mode(SimdMode::kNeon);
  EXPECT_TRUE(level_available(avx2));
  EXPECT_TRUE(level_available(neon));
}

TEST(KernelDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(level_name(SimdLevel::kNeon), "neon");
}

TEST(KernelParity, MultiplyConjugateBitIdentical) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD level on this machine";
  for (std::size_t n : kSizes) {
    const auto a = random_cplx(n, 0x11 + n);
    const auto b = random_cplx(n, 0x22 + n);
    std::vector<Cplx> ref(n), simd(n);
    {
      ScopedSimdMode off(SimdMode::kOff);
      multiply_conjugate(a.data(), b.data(), ref.data(), n);
    }
    multiply_conjugate(a.data(), b.data(), simd.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref[i].real(), simd[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(ref[i].imag(), simd[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, IdwWeighSpecializedPowersWithinTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD level on this machine";
  for (std::size_t n : kSizes) {
    const auto dist = random_doubles(n, 0.5, 500.0, 0x44 + n);
    const auto val = random_doubles(n, -40.0, 40.0, 0x55 + n);
    for (double power : {1.0, 2.0}) {
      IdwAccum ref, simd;
      {
        ScopedSimdMode off(SimdMode::kOff);
        ref = idw_weigh(dist.data(), val.data(), n, power);
      }
      simd = idw_weigh(dist.data(), val.data(), n, power);
      EXPECT_NEAR(ref.wsum, simd.wsum, std::abs(ref.wsum) * kRelTol)
          << "n=" << n << " power=" << power;
      EXPECT_NEAR(ref.vsum, simd.vsum,
                  std::max(std::abs(ref.vsum), std::abs(ref.wsum)) * kRelTol)
          << "n=" << n << " power=" << power;
    }
  }
}

TEST(KernelParity, IdwWeighGenericPowerRunsScalarBitIdentical) {
  const auto dist = random_doubles(37, 0.5, 500.0, 0x66);
  const auto val = random_doubles(37, -40.0, 40.0, 0x77);
  IdwAccum ref, any;
  {
    ScopedSimdMode off(SimdMode::kOff);
    ref = idw_weigh(dist.data(), val.data(), dist.size(), 3.0);
  }
  any = idw_weigh(dist.data(), val.data(), dist.size(), 3.0);
  EXPECT_EQ(ref.wsum, any.wsum);
  EXPECT_EQ(ref.vsum, any.vsum);
}

TEST(KernelParity, KMeansAssignBitIdenticalIncludingTies) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD level on this machine";
  for (std::size_t n : kSizes) {
    auto px = random_doubles(n, -100.0, 100.0, 0x88 + n);
    auto py = random_doubles(n, -100.0, 100.0, 0x99 + n);
    // Plant exact ties: points equidistant from centers 1 and 3.
    const double cx[] = {-50.0, -10.0, 0.0, 10.0, 60.0};
    const double cy[] = {0.0, 0.0, 30.0, 0.0, -20.0};
    for (std::size_t i = 0; i + 4 < n; i += 5) {
      px[i] = 0.0;  // midway between centers 1 and 3 on the x axis
      py[i] = 7.0;
    }
    std::vector<int> ref_a(n, 0), simd_a(n, 0);
    int ref_changed = 0, simd_changed = 0;
    {
      ScopedSimdMode off(SimdMode::kOff);
      ref_changed = kmeans_assign(px.data(), py.data(), n, cx, cy, 5, ref_a.data());
    }
    simd_changed = kmeans_assign(px.data(), py.data(), n, cx, cy, 5, simd_a.data());
    EXPECT_EQ(ref_changed, simd_changed) << "n=" << n;
    EXPECT_EQ(ref_a, simd_a) << "n=" << n;
    // Second pass with nothing moved: changed must be 0 at both levels.
    {
      ScopedSimdMode off(SimdMode::kOff);
      EXPECT_EQ(kmeans_assign(px.data(), py.data(), n, cx, cy, 5, ref_a.data()), 0);
    }
    EXPECT_EQ(kmeans_assign(px.data(), py.data(), n, cx, cy, 5, simd_a.data()), 0);
  }
}

TEST(KernelParity, MinDist2BitIdentical) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD level on this machine";
  for (std::size_t n : kSizes) {
    const auto px = random_doubles(n, -100.0, 100.0, 0xAA + n);
    const auto py = random_doubles(n, -100.0, 100.0, 0xBB + n);
    const auto cx = random_doubles(7, -100.0, 100.0, 0xCC);
    const auto cy = random_doubles(7, -100.0, 100.0, 0xDD);
    std::vector<double> ref(n), simd(n);
    {
      ScopedSimdMode off(SimdMode::kOff);
      min_dist2(px.data(), py.data(), n, cx.data(), cy.data(), 7, ref.data());
    }
    min_dist2(px.data(), py.data(), n, cx.data(), cy.data(), 7, simd.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ref[i], simd[i]) << "n=" << n << " i=" << i;
  }
}

TEST(KernelParity, FsplWithinDbTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD level on this machine";
  for (double freq : {700e6, 1.8e9, 2.6e9, 5.9e9}) {
    // Includes sub-1 m distances to exercise the clamp.
    auto dist = random_doubles(1024, 0.1, 2.0e7, 0xEE);
    std::vector<double> ref(dist.size()), simd(dist.size());
    {
      ScopedSimdMode off(SimdMode::kOff);
      fspl_db(dist.data(), ref.data(), dist.size(), freq);
    }
    fspl_db(dist.data(), simd.data(), dist.size(), freq);
    for (std::size_t i = 0; i < dist.size(); ++i) {
      EXPECT_NEAR(ref[i], simd[i], kDbAbsTol) << "freq=" << freq << " d=" << dist[i];
    }
  }
}

TEST(KernelParity, LogDistanceWithinDbTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD level on this machine";
  auto dist = random_doubles(513, 0.1, 5.0e4, 0xFF);
  std::vector<double> ref(dist.size()), simd(dist.size());
  {
    ScopedSimdMode off(SimdMode::kOff);
    log_distance_db(dist.data(), ref.data(), dist.size(), 2.6e9, 3.2, 10.0);
  }
  log_distance_db(dist.data(), simd.data(), dist.size(), 2.6e9, 3.2, 10.0);
  for (std::size_t i = 0; i < dist.size(); ++i) {
    EXPECT_NEAR(ref[i], simd[i], kDbAbsTol) << "d=" << dist[i];
  }
}

TEST(KernelScalar, MatchesRfFormulas) {
  // The rf layer delegates its formulas here; pin the scalar reference to
  // the historical expressions so SKYRAN_SIMD=off replays stay byte-stable.
  ScopedSimdMode off(SimdMode::kOff);
  for (double d : {0.0, 0.5, 1.0, 17.3, 450.0, 2.0e6}) {
    const double expected =
        20.0 * std::log10(4.0 * M_PI * std::max(d, 1.0) * 2.6e9 / 299'792'458.0);
    EXPECT_EQ(fspl_db_one(d, 2.6e9), expected);
    EXPECT_EQ(rf::fspl_db(d, 2.6e9), expected);
    double out = 0.0;
    fspl_db(&d, &out, 1, 2.6e9);
    EXPECT_EQ(out, expected);
  }
  for (double d : {0.5, 10.0, 123.4, 9'000.0}) {
    const double expected = fspl_db_one(10.0, 2.6e9) +
                            10.0 * 3.0 * std::log10(std::max(d, 10.0) / 10.0);
    EXPECT_EQ(rf::log_distance_db(d, 2.6e9, 3.0, 10.0), expected);
  }
}

TEST(KernelScalar, PowerPeakScanMatchesNaiveLoop) {
  // power_peak_scan is scalar at every level; no ScopedSimdMode needed.
  const auto check = [](const std::vector<Cplx>& v) {
    std::size_t best = 0;
    double best_mag = std::norm(v[0]);
    double total = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double m = std::norm(v[i]);
      total += m;
      if (m > best_mag) {
        best_mag = m;
        best = i;
      }
    }
    const PowerPeak pp = power_peak_scan(v.data(), v.size());
    EXPECT_EQ(pp.argmax, best);
    EXPECT_EQ(pp.peak, best_mag);
    EXPECT_EQ(pp.total, total);
    return pp.argmax;
  };
  check(random_cplx(301, 0xABC));
  // Ties pick the lowest index: the same maximal magnitude planted at
  // several indices.
  for (std::size_t first : {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{6}}) {
    std::vector<Cplx> v(32, Cplx{0.25, -0.25});
    for (std::size_t at : {first, first + 1, first + 3, first + 17}) v[at] = {2.0, 1.0};
    EXPECT_EQ(check(v), first);
  }
  EXPECT_EQ(power_peak_scan(nullptr, 0).argmax, 0u);
}

TEST(KernelScalar, IdwWeighMatchesNaiveLoop) {
  ScopedSimdMode off(SimdMode::kOff);
  const auto dist = random_doubles(23, 0.5, 300.0, 0xDEF);
  const auto val = random_doubles(23, -30.0, 30.0, 0x123);
  double wsum = 0.0, vsum = 0.0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    const double w = 1.0 / std::pow(dist[i], 2.0);
    wsum += w;
    vsum += w * val[i];
  }
  const IdwAccum acc = idw_weigh(dist.data(), val.data(), dist.size(), 2.0);
  EXPECT_EQ(acc.wsum, wsum);
  EXPECT_EQ(acc.vsum, vsum);
}

}  // namespace
}  // namespace skyran::kernels

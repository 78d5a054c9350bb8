// Kernels layer: known-answer tests of the scalar kernels against naive
// loops, scalar-vs-AVX2 parity for the two TOLERANCE kernels, which must
// stay within the bounds documented in src/kernels/kernels.hpp, and bit
// equality for the EXACT radix2_stage. Each parity check runs the same
// inputs under ScopedScalarKernels and at the active level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "geo/mt19937.hpp"
#include "kernels/kernels.hpp"
#include "rf/models.hpp"

namespace skyran::kernels {
namespace {

constexpr double kRelTol = 1e-12;   // reassociated reductions
constexpr double kDbAbsTol = 1e-9;  // polynomial log10, after the 20x scale

bool simd_active() { return active_level() != SimdLevel::kScalar; }

std::vector<Cplx> random_cplx(std::size_t n, std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-3.0, 3.0);
  std::vector<Cplx> v(n);
  for (Cplx& c : v) c = {d(rng), d(rng)};
  return v;
}

std::vector<double> random_doubles(std::size_t n, double lo, double hi, std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 17, 256, 1023};

TEST(KernelDispatch, ScopedScalarForcesScalar) {
  ScopedScalarKernels scalar;
  EXPECT_EQ(active_level(), SimdLevel::kScalar);
}

TEST(KernelDispatch, ScopedScalarRestoresPreviousLevel) {
  const SimdLevel before = active_level();
  {
    ScopedScalarKernels scalar;
    EXPECT_EQ(active_level(), SimdLevel::kScalar);
  }
  EXPECT_EQ(active_level(), before);
}

TEST(KernelDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(level_name(SimdLevel::kAvx2), "avx2");
}

TEST(KernelParity, IdwWeighSpecializedPowersWithinTolerance) {
  if (!simd_active()) GTEST_SKIP() << "no SIMD level active";
  for (std::size_t n : kSizes) {
    const auto dist = random_doubles(n, 0.5, 500.0, 0x44 + n);
    const auto val = random_doubles(n, -40.0, 40.0, 0x55 + n);
    for (double power : {1.0, 2.0}) {
      IdwAccum ref, simd;
      {
        ScopedScalarKernels scalar;
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
    ScopedScalarKernels scalar;
    ref = idw_weigh(dist.data(), val.data(), dist.size(), 3.0);
  }
  any = idw_weigh(dist.data(), val.data(), dist.size(), 3.0);
  EXPECT_EQ(ref.wsum, any.wsum);
  EXPECT_EQ(ref.vsum, any.vsum);
}

TEST(KernelParity, FsplWithinDbTolerance) {
  if (!simd_active()) GTEST_SKIP() << "no SIMD level active";
  for (double freq : {700e6, 1.8e9, 2.6e9, 5.9e9}) {
    // Includes sub-1 m distances to exercise the clamp.
    auto dist = random_doubles(1024, 0.1, 2.0e7, 0xEE);
    std::vector<double> ref(dist.size()), simd(dist.size());
    {
      ScopedScalarKernels scalar;
      fspl_db(dist.data(), ref.data(), dist.size(), freq);
    }
    fspl_db(dist.data(), simd.data(), dist.size(), freq);
    for (std::size_t i = 0; i < dist.size(); ++i) {
      EXPECT_NEAR(ref[i], simd[i], kDbAbsTol) << "freq=" << freq << " d=" << dist[i];
    }
  }
}

TEST(KernelParity, Radix2StageBitIdentical) {
  // Every block kind, with both output halves, the lower ones only, and odd
  // counts, which run scalar at every level.
  const std::size_t counts[][2] = {{1, 1}, {2, 2}, {8, 8}, {0, 5}, {3, 8}, {0, 0}, {7, 7}};
  for (const std::size_t half : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const auto& [n_minus_max, n_plus_max] : counts) {
      const std::size_t n_plus = std::min(n_plus_max, half);
      const std::size_t n_minus = std::min(n_minus_max, n_plus);
      const std::vector<Radix2Block> blocks = {
          {0, Radix2Block::kBoth},
          {static_cast<std::uint32_t>(2 * half), Radix2Block::kLowerOnly},
          {static_cast<std::uint32_t>(4 * half), Radix2Block::kUpperOnly},
          {static_cast<std::uint32_t>(8 * half), Radix2Block::kBoth}};
      const auto input = random_cplx(10 * half, 0x90 + half + n_minus * 7 + n_plus);
      const auto tw = random_cplx(half, 0xA0 + half);
      std::vector<Cplx> ref = input, simd = input;
      {
        ScopedScalarKernels scalar;
        radix2_stage(ref.data(), blocks.data(), blocks.size(), half, tw.data(), n_minus, n_plus);
      }
      radix2_stage(simd.data(), blocks.data(), blocks.size(), half, tw.data(), n_minus, n_plus);
      ASSERT_EQ(std::memcmp(ref.data(), simd.data(), ref.size() * sizeof(Cplx)), 0)
          << "half=" << half << " n_minus=" << n_minus << " n_plus=" << n_plus;
      // The scalar variant against the butterfly written out.
      for (const Radix2Block& b : blocks) {
        for (std::size_t j = 0; j < half; ++j) {
          const Cplx u = input[b.start + j];
          const Cplx h = input[b.start + half + j];
          const Cplx v(h.real() * tw[j].real() - h.imag() * tw[j].imag(),
                       h.real() * tw[j].imag() + h.imag() * tw[j].real());
          Cplx lo = u, hi = h;
          if (b.kind == Radix2Block::kBoth) {
            if (j < n_plus) lo = u + v;
            if (j < n_minus) hi = u - v;
          } else if (b.kind == Radix2Block::kLowerOnly) {
            if (j < n_minus) hi = u;
          } else {
            if (j < n_plus) lo = v;
            if (j < n_minus) hi = -v;
          }
          EXPECT_EQ(ref[b.start + j], lo) << "start=" << b.start << " j=" << j;
          EXPECT_EQ(ref[b.start + half + j], hi) << "start=" << b.start << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelScalar, MatchesRfFormulas) {
  // The rf layer delegates its formulas here; pin the scalar reference to
  // the historical expressions so SKYRAN_SIMD=off replays stay byte-stable.
  ScopedScalarKernels scalar;
  for (double d : {0.0, 0.5, 1.0, 17.3, 450.0, 2.0e6}) {
    const double expected =
        20.0 * std::log10(4.0 * M_PI * std::max(d, 1.0) * 2.6e9 / 299'792'458.0);
    EXPECT_EQ(fspl_db_one(d, 2.6e9), expected);
    EXPECT_EQ(rf::fspl_db(d, 2.6e9), expected);
    double out = 0.0;
    fspl_db(&d, &out, 1, 2.6e9);
    EXPECT_EQ(out, expected);
  }
}

TEST(KernelScalar, PowerPeakScanMatchesNaiveLoop) {
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
  ScopedScalarKernels scalar;
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

TEST(KernelScalar, MultiplyConjugateMatchesStdComplex) {
  for (std::size_t n : kSizes) {
    const auto a = random_cplx(n, 0x11 + n);
    const auto b = random_cplx(n, 0x22 + n);
    std::vector<Cplx> out(n);
    multiply_conjugate(a.data(), b.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Cplx expected = a[i] * std::conj(b[i]);
      EXPECT_EQ(out[i].real(), expected.real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(out[i].imag(), expected.imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelScalar, KMeansAssignMatchesNaiveArgminIncludingTies) {
  const double cx[] = {-50.0, -10.0, 0.0, 10.0, 60.0};
  const double cy[] = {0.0, 0.0, 30.0, 0.0, -20.0};
  for (std::size_t n : kSizes) {
    auto px = random_doubles(n, -100.0, 100.0, 0x88 + n);
    auto py = random_doubles(n, -100.0, 100.0, 0x99 + n);
    // Plant exact ties: points equidistant from centers 1 and 3.
    for (std::size_t i = 0; i + 4 < n; i += 5) {
      px[i] = 0.0;  // midway between centers 1 and 3 on the x axis
      py[i] = 7.0;
    }
    std::vector<int> expected(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      double best_d2 = (px[i] - cx[0]) * (px[i] - cx[0]) + (py[i] - cy[0]) * (py[i] - cy[0]);
      for (int c = 1; c < 5; ++c) {
        const double d2 =
            (px[i] - cx[c]) * (px[i] - cx[c]) + (py[i] - cy[c]) * (py[i] - cy[c]);
        if (d2 < best_d2) {
          best_d2 = d2;
          expected[i] = c;
        }
      }
    }
    std::vector<int> assignment(n, 0);
    const bool any_nonzero =
        std::any_of(expected.begin(), expected.end(), [](int c) { return c != 0; });
    EXPECT_EQ(kmeans_assign(px.data(), py.data(), n, cx, cy, 5, assignment.data()),
              any_nonzero ? 1 : 0)
        << "n=" << n;
    EXPECT_EQ(assignment, expected) << "n=" << n;
    for (std::size_t i = 0; i + 4 < n; i += 5) EXPECT_EQ(assignment[i], 1) << "i=" << i;
    // Second pass with nothing moved: nothing changes.
    EXPECT_EQ(kmeans_assign(px.data(), py.data(), n, cx, cy, 5, assignment.data()), 0)
        << "n=" << n;
    EXPECT_EQ(assignment, expected) << "n=" << n;
  }
}

TEST(KernelScalar, MinDist2MatchesNaiveLoop) {
  const auto cx = random_doubles(7, -100.0, 100.0, 0xCC);
  const auto cy = random_doubles(7, -100.0, 100.0, 0xDD);
  for (std::size_t n : kSizes) {
    const auto px = random_doubles(n, -100.0, 100.0, 0xAA + n);
    const auto py = random_doubles(n, -100.0, 100.0, 0xBB + n);
    std::vector<double> out(n);
    min_dist2(px.data(), py.data(), n, cx.data(), cy.data(), 7, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < 7; ++c) {
        const double dx = px[i] - cx[c];
        const double dy = py[i] - cy[c];
        best = std::min(best, dx * dx + dy * dy);
      }
      EXPECT_EQ(out[i], best) << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace skyran::kernels

// AVX2 variants of the two TOLERANCE kernels and of the EXACT radix2_stage
// (x86-64 only). This translation unit is compiled with -mavx2 and must only
// be entered after the runtime CPU-feature check in dispatch.cpp. No FMA
// anywhere: -mavx2 alone does not enable it, so the compiler cannot contract
// the mul/add pairs whose order the tolerance bounds were measured for, or
// those radix2_stage must round exactly as the scalar variant does.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <numbers>

#include "kernels/detail.hpp"

namespace skyran::kernels::avx2 {
namespace {

// log10 on four positive, finite lanes. Range reduction x = m * 2^e with
// m in [sqrt(2)/2, sqrt(2)), then ln(m) = 2*artanh(s), s = (m-1)/(m+1),
// via an odd atanh series in z = s^2 (|s| <= 0.1716 -> z <= 0.0295, so the
// z^7/15 tail bounds truncation at ~4e-14 relative). Measured error vs
// std::log10 is < 1e-12; the public contract allows 1e-9 dB after the
// 20x scale.
inline __m256d log10_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i bits = _mm256_castpd_si256(x);

  // Biased exponent -> integer e, converted int64->double with the
  // 1.5*2^52 magic-constant trick (valid for |e| < 2^51).
  __m256i expi = _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7ff));
  expi = _mm256_sub_epi64(expi, _mm256_set1_epi64x(1023));
  const __m256i magic = _mm256_set1_epi64x(0x4338000000000000LL);
  __m256d e = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(expi, magic)),
                            _mm256_castsi256_pd(magic));

  // Mantissa in [1, 2); fold (sqrt(2), 2) down so s stays small.
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
                      _mm256_set1_epi64x(0x3ff0000000000000LL)));
  const __m256d fold = _mm256_cmp_pd(m, _mm256_set1_pd(std::numbers::sqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
  e = _mm256_add_pd(e, _mm256_and_pd(fold, one));

  const __m256d s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(1.0 / 15.0);
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(1.0 / 13.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(1.0 / 11.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(1.0 / 9.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(1.0 / 7.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(1.0 / 5.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(1.0 / 3.0));
  const __m256d artanh = _mm256_add_pd(s, _mm256_mul_pd(_mm256_mul_pd(s, z), p));
  const __m256d ln_m = _mm256_add_pd(artanh, artanh);

  const __m256d log10_2 = _mm256_set1_pd(0.30102999566398119521);  // log10(2)
  const __m256d inv_ln10 = _mm256_set1_pd(0.43429448190325182765); // 1/ln(10)
  return _mm256_add_pd(_mm256_mul_pd(e, log10_2), _mm256_mul_pd(ln_m, inv_ln10));
}

/// Two complex products x·y per register, interleaved (re, im, re, im):
/// (ac − bd, bc + ad), the scalar variant's (ac − bd, ad + bc) with one sum
/// commuted, which IEEE addition allows. addsub subtracts in the even lanes
/// and adds in the odd ones.
inline __m256d cmul_pd(__m256d x, __m256d y) {
  return _mm256_addsub_pd(_mm256_mul_pd(x, _mm256_movedup_pd(y)),
                          _mm256_mul_pd(_mm256_permute_pd(x, 0x5), _mm256_permute_pd(y, 0xF)));
}

inline __m256d load2(const Cplx* p) { return _mm256_loadu_pd(reinterpret_cast<const double*>(p)); }
inline void store2(Cplx* p, __m256d v) { _mm256_storeu_pd(reinterpret_cast<double*>(p), v); }

}  // namespace

void radix2_stage(Cplx* a, const Radix2Block* blocks, std::size_t n_blocks, std::size_t half,
                  const Cplx* tw, std::size_t n_minus, std::size_t n_plus) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (std::size_t bi = 0; bi < n_blocks; ++bi) {
    Cplx* const lo = a + blocks[bi].start;
    Cplx* const hi = lo + half;
    std::size_t j = 0;
    switch (blocks[bi].kind) {
      case Radix2Block::kBoth:
        for (; j < n_minus; j += 2) {
          const __m256d u = load2(lo + j);
          const __m256d v = cmul_pd(load2(hi + j), load2(tw + j));
          store2(lo + j, _mm256_add_pd(u, v));
          store2(hi + j, _mm256_sub_pd(u, v));
        }
        for (; j < n_plus; j += 2)
          store2(lo + j, _mm256_add_pd(load2(lo + j), cmul_pd(load2(hi + j), load2(tw + j))));
        break;
      case Radix2Block::kLowerOnly:
        std::copy(lo, lo + n_minus, hi);
        break;
      case Radix2Block::kUpperOnly:
        for (; j < n_minus; j += 2) {
          const __m256d v = cmul_pd(load2(hi + j), load2(tw + j));
          store2(lo + j, v);
          store2(hi + j, _mm256_xor_pd(v, sign));
        }
        for (; j < n_plus; j += 2) store2(lo + j, cmul_pd(load2(hi + j), load2(tw + j)));
        break;
    }
  }
}

IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power) {
  // Dispatch guarantees power is 1.0 or 2.0 here; anything else runs scalar.
  const bool square = power == 2.0;
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d wsum = _mm256_setzero_pd();
  __m256d vsum = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dv = _mm256_loadu_pd(dist_m + i);
    const __m256d w = _mm256_div_pd(one, square ? _mm256_mul_pd(dv, dv) : dv);
    wsum = _mm256_add_pd(wsum, w);
    vsum = _mm256_add_pd(vsum, _mm256_mul_pd(w, _mm256_loadu_pd(value + i)));
  }
  double wl[4], vl[4];
  _mm256_storeu_pd(wl, wsum);
  _mm256_storeu_pd(vl, vsum);
  IdwAccum acc;
  acc.wsum = ((wl[0] + wl[1]) + wl[2]) + wl[3];
  acc.vsum = ((vl[0] + vl[1]) + vl[2]) + vl[3];
  for (; i < n; ++i) {
    const double w = square ? 1.0 / (dist_m[i] * dist_m[i]) : 1.0 / dist_m[i];
    acc.wsum += w;
    acc.vsum += w * value[i];
  }
  return acc;
}

void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz) {
  const __m256d four_pi = _mm256_set1_pd(4.0 * std::numbers::pi);
  const __m256d freq = _mm256_set1_pd(frequency_hz);
  const __m256d c = _mm256_set1_pd(kSpeedOfLightMps);
  const __m256d floor_m = _mm256_set1_pd(1.0);
  const __m256d twenty = _mm256_set1_pd(20.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d d = _mm256_max_pd(_mm256_loadu_pd(dist_m + i), floor_m);
    // Same op order as the scalar formula: ((4*pi*d)*f)/c.
    const __m256d arg =
        _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(four_pi, d), freq), c);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(twenty, log10_pd(arg)));
  }
  for (; i < n; ++i) {
    out[i] = fspl_db_one(dist_m[i], frequency_hz);
  }
}

}  // namespace skyran::kernels::avx2

#endif  // x86-64

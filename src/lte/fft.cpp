#include "lte/fft.hpp"

#include <cmath>
#include <numbers>

#include "geo/contract.hpp"
#include "kernels/kernels.hpp"

namespace skyran::lte {

namespace {

/// Radix-2 iterative Cooley-Tukey with the inverse transform's positive
/// twiddle exponent, unnormalized. Caller guarantees a power-of-two size.
void ifft_radix2(CplxVec& a) {
  const std::size_t n = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * std::numbers::pi / static_cast<double>(len);
    const Cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Cplx u = a[i + j];
        const Cplx v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void ifft_inplace(CplxVec& data) {
  expects(is_power_of_two(data.size()), "ifft: size must be a power of two");
  ifft_radix2(data);
  const double scale = 1.0 / static_cast<double>(data.size());
  for (Cplx& v : data) v *= scale;
}

CplxVec multiply_conjugate(const CplxVec& a, const CplxVec& b) {
  expects(a.size() == b.size(), "multiply_conjugate: size mismatch");
  CplxVec out(a.size());
  kernels::multiply_conjugate(a.data(), b.data(), out.data(), a.size());
  return out;
}

}  // namespace skyran::lte

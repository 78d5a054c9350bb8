// Inverse FFT for the SRS correlation pipeline (paper Sec 3.2.2, eq. 1-3):
// radix-2 iterative Cooley-Tukey, power-of-two sizes only (the ToF
// estimator requires a power-of-two upsampled size). The correlator needs
// only the inverse transform: lte::TofEstimator runs a planned form of the
// same butterflies, and this dense transform is its reference in tests and
// micro benches. There is no forward transform; tests that need one take
// it through the conjugation identity fft(x) = N * conj(ifft(conj(x))).
#pragma once

#include <complex>
#include <vector>

namespace skyran::lte {

using Cplx = std::complex<double>;
using CplxVec = std::vector<Cplx>;

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// In-place inverse FFT, normalized by 1/N; the size must be a power of two.
void ifft_inplace(CplxVec& data);

/// Element-wise a[i] * conj(b[i]); sizes must match.
CplxVec multiply_conjugate(const CplxVec& a, const CplxVec& b);

}  // namespace skyran::lte

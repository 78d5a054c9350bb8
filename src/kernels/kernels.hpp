// Kernel layer (lowest compute layer, below geo/).
//
// Each kernel is a small SoA math primitive with one scalar implementation.
// Two TOLERANCE kernels, idw_weigh and fspl_db, and one EXACT kernel,
// radix2_stage, also have an AVX2 (x86-64) variant, picked once per process
// from CPU features; SKYRAN_SIMD=off (or scalar, or 0) forces scalar, any
// other value probes the CPU.
//
// Contract per kernel (asserted in tests/test_kernels and, for the AVX2
// variants, in-bench by micro_dsp):
//  - EXACT kernels run the same scalar code at every level, or an AVX2
//    variant that computes every value with the same operations in the same
//    order, so its output is bit-equal.
//  - TOLERANCE kernels reassociate a reduction (lane partial sums) or use a
//    polynomial log10 under AVX2; scalar and AVX2 results agree within the
//    stated bound. Their scalar path is always the pre-kernel-layer loop
//    verbatim, so SKYRAN_SIMD=off reproduces historical outputs
//    byte-for-byte.
//
// | kernel              | contract  | bound (scalar vs AVX2)                 |
// |---------------------|-----------|----------------------------------------|
// | multiply_conjugate  | EXACT     | scalar at every level                  |
// | power_peak_scan     | EXACT     | scalar at every level                  |
// | radix2_stage        | EXACT     | AVX2 bit-equal (finite operands)       |
// | idw_weigh           | TOLERANCE | wsum/vsum rel <= 1e-12 (power 1 or 2;  |
// |                     |           | other powers run scalar: EXACT)        |
// | kmeans_assign       | EXACT     | scalar at every level                  |
// | min_dist2           | EXACT     | scalar at every level                  |
// | fspl_db             | TOLERANCE | abs <= 1e-9 dB (polynomial log10)      |
//
// The layer has no dependencies other than obs (dispatch gauge + throughput
// counters); geo/rf/lte/rem all sit above it.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace skyran::kernels {

using Cplx = std::complex<double>;

/// Speed of light, m/s. rf/units.hpp re-exports the same value; the copy
/// here keeps the kernel layer dependency-free (rf static_asserts equality).
inline constexpr double kSpeedOfLightMps = 299'792'458.0;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Instruction-set variant the TOLERANCE kernels execute.
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

/// The level kernels currently dispatch to. Resolved once, on first use:
/// SKYRAN_SIMD=off|scalar|0 forces kScalar, else the best level the CPU
/// supports. A live ScopedScalarKernels overrides both.
SimdLevel active_level();

const char* level_name(SimdLevel level);

/// RAII override for tests and benches: forces kScalar, restores the
/// previous level on destruction. Deliberately process-wide, not
/// thread-local: kernels run on pool worker threads, which must observe the
/// same level as the caller. Construct and destroy it between parallel
/// regions, not concurrently with kernel execution.
class ScopedScalarKernels {
 public:
  ScopedScalarKernels();
  ~ScopedScalarKernels();
  ScopedScalarKernels(const ScopedScalarKernels&) = delete;
  ScopedScalarKernels& operator=(const ScopedScalarKernels&) = delete;

 private:
  SimdLevel saved_;
};

// ---------------------------------------------------------------------------
// Complex correlation / magnitude (SRS ToF pipeline)
// ---------------------------------------------------------------------------

/// out[i] = a[i] * conj(b[i]), std::complex multiplication per element.
void multiply_conjugate(const Cplx* a, const Cplx* b, Cplx* out, std::size_t n);

struct PowerPeak {
  std::size_t argmax = 0;  ///< index of the largest |v[i]|^2; ties -> lowest
  double peak = 0.0;       ///< |v[argmax]|^2
  double total = 0.0;      ///< sum of |v[i]|^2 over the scan
};

/// One fused pass over |v[i]|^2: argmax (lowest index wins ties), the peak
/// power, and the total power summed in index order. n == 0 returns a
/// zeroed result.
PowerPeak power_peak_scan(const Cplx* v, std::size_t n);

/// One block of a pruned radix-2 stage: its first slot, and which of its
/// halves holds values (a block whose halves are both zero is left out).
struct Radix2Block {
  std::uint32_t start;
  enum Kind : std::uint8_t { kBoth, kLowerOnly, kUpperOnly } kind;
};

/// One decimation-in-time stage of an in-place radix-2 transform, over the
/// listed blocks of 2·half slots of `a`, with lo = a + start, hi = lo + half
/// and twiddles tw[0, half). For j < n_minus a block writes both outputs,
/// lo[j] = u + v and hi[j] = u − v with u = lo[j], v = hi[j]·tw[j]; for
/// n_minus <= j < n_plus only lo[j] = u + v (a stage whose upper outputs
/// nobody reads). A zero half is never read: kLowerOnly copies lo into hi,
/// kUpperOnly writes v and −v, which differ from the full butterfly at most
/// in the sign of an exact zero. Each product is (ac − bd, ad + bc), as
/// -fcx-limited-range compiles std::complex multiplication; the AVX2
/// variant (for even n_minus and n_plus; odd ones run scalar) computes the
/// same expressions without FMA, so both are bit-equal for finite operands.
void radix2_stage(Cplx* a, const Radix2Block* blocks, std::size_t n_blocks, std::size_t half,
                  const Cplx* tw, std::size_t n_minus, std::size_t n_plus);

// ---------------------------------------------------------------------------
// Weighted accumulate (IDW interpolation)
// ---------------------------------------------------------------------------

struct IdwAccum {
  double wsum = 0.0;  ///< sum of 1/dist^power
  double vsum = 0.0;  ///< sum of value/dist^power
};

/// IDW accumulator over `n` (distance, value) pairs: w_i = dist_i^-power.
/// Scalar accumulates in index order with w_i = 1/std::pow(dist_i, power)
/// (the historical loop). AVX2 specializes power == 2.0 and power == 1.0
/// (w = 1/(d*d), 1/d) with lane-partial sums: TOLERANCE, rel <= 1e-12 on
/// wsum/vsum. Any other power falls back to scalar (EXACT). Distances must
/// be positive (callers handle the exact-hit shortcut first).
IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power);

// ---------------------------------------------------------------------------
// Squared-distance argmin (k-means assignment)
// ---------------------------------------------------------------------------

/// assignment[i] = argmin_c (px[i]-cx[c])^2 + (py[i]-cy[c])^2, lowest center
/// index winning ties (centers in index order, strict-less update). Returns
/// 1 when any assignment[i] changed from its previous content, else 0 (the
/// k-means convergence flag).
int kmeans_assign(const double* px, const double* py, std::size_t n_points,
                  const double* cx, const double* cy, std::size_t n_centers,
                  int* assignment);

/// best_d2[i] = min_c (px[i]-cx[c])^2 + (py[i]-cy[c])^2. Used by k-means++
/// seeding.
void min_dist2(const double* px, const double* py, std::size_t n_points,
               const double* cx, const double* cy, std::size_t n_centers,
               double* best_d2);

// ---------------------------------------------------------------------------
// Path-loss evaluation (channel sampling)
// ---------------------------------------------------------------------------

/// Scalar reference for one distance: free-space path loss, dB. This is the
/// single definition of the formula; rf::fspl_db delegates here.
double fspl_db_one(double distance_m, double frequency_hz);

/// out[i] = free-space path loss of dist_m[i] (clamped below at 1 m), dB.
/// Scalar calls std::log10 per element (the historical rf::fspl_db loop);
/// AVX2 evaluates the whole chain — product, range reduction, polynomial
/// log10, scale — four lanes at a time. TOLERANCE: abs <= 1e-9 dB (measured
/// error is ~1e-12 dB; the bound leaves headroom for future polynomials).
void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz);

}  // namespace skyran::kernels

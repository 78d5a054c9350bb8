// Runtime-dispatched SIMD kernel layer (lowest compute layer, below geo/).
//
// Each kernel is a small SoA math primitive with a scalar reference
// implementation and, where the hardware supports it, an AVX2 (x86-64) or
// NEON (aarch64) variant. The variant is selected once per process from CPU
// features, overridable with SKYRAN_SIMD=off|avx2|neon|auto or
// SkyRanConfig::simd / kernels::set_mode().
//
// Exactness contract (documented per kernel, asserted in tests/test_kernels
// and in-bench by micro_dsp):
//  - EXACT kernels produce bit-identical results at every SIMD level: the
//    vector variant performs the same per-element operation sequence (no FMA
//    contraction, no reassociation of any value the caller observes).
//  - TOLERANCE kernels reassociate a reduction (lane partial sums) or use a
//    polynomial log10; scalar and SIMD results agree within the stated
//    bound. Their scalar path is always the pre-kernel-layer loop verbatim,
//    so SKYRAN_SIMD=off reproduces historical outputs byte-for-byte.
//
// | kernel              | contract  | bound (scalar vs SIMD)                 |
// |---------------------|-----------|----------------------------------------|
// | multiply_conjugate  | EXACT     | bit-identical (finite inputs)          |
// | power_peak_scan     | EXACT     | scalar at every level (no SIMD path)   |
// | idw_weigh           | TOLERANCE | wsum/vsum rel <= 1e-12 (power 1 or 2;  |
// |                     |           | other powers run scalar: EXACT)        |
// | kmeans_assign       | EXACT     | bit-identical assignment               |
// | min_dist2           | EXACT     | bit-identical distances                |
// | fspl_db             | TOLERANCE | abs <= 1e-9 dB (polynomial log10)      |
// | log_distance_db     | TOLERANCE | abs <= 1e-9 dB (polynomial log10)      |
//
// The layer has no dependencies other than obs (dispatch gauge + throughput
// counters); geo/rf/lte/rem all sit above it.
#pragma once

#include <complex>
#include <cstddef>

namespace skyran::kernels {

using Cplx = std::complex<double>;

/// Speed of light, m/s. rf/units.hpp re-exports the same value; the copy
/// here keeps the kernel layer dependency-free (rf static_asserts equality).
inline constexpr double kSpeedOfLightMps = 299'792'458.0;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Instruction-set variant a kernel call executes.
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Operator-facing selection policy (SKYRAN_SIMD / SkyRanConfig::simd).
enum class SimdMode : int { kAuto = 0, kOff = 1, kAvx2 = 2, kNeon = 3 };

/// The level kernels currently dispatch to. Resolved once, on first use:
/// an explicit set_mode() wins, else the SKYRAN_SIMD environment variable
/// (off|scalar|avx2|neon|auto), else the best level the CPU supports.
SimdLevel active_level();

/// True when the CPU (and build) can execute `level`.
bool level_available(SimdLevel level);

/// Process-wide override; requests the CPU cannot execute clamp down to the
/// best available level (kAvx2 on a non-AVX2 machine -> kScalar). Unlike the
/// thread-count override this is deliberately NOT thread-local: kernels run
/// on pool worker threads, which must observe the same level as the caller.
/// Call between parallel regions, not concurrently with kernel execution.
void set_mode(SimdMode mode);

/// Resolve `mode` to the level it would dispatch to on this machine.
SimdLevel resolve_mode(SimdMode mode);

const char* level_name(SimdLevel level);

/// RAII override for tests and benches: forces a mode, restores the previous
/// level on destruction. Same process-wide caveat as set_mode().
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode);
  ~ScopedSimdMode();
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  SimdLevel saved_;
};

// ---------------------------------------------------------------------------
// Complex correlation / magnitude (SRS ToF pipeline)
// ---------------------------------------------------------------------------

/// out[i] = a[i] * conj(b[i]). EXACT: the SIMD variant issues the same
/// mul/add/sub sequence per element as std::complex multiplication (no FMA),
/// so results are bit-identical for finite, non-overflowing inputs.
void multiply_conjugate(const Cplx* a, const Cplx* b, Cplx* out, std::size_t n);

struct PowerPeak {
  std::size_t argmax = 0;  ///< index of the largest |v[i]|^2; ties -> lowest
  double peak = 0.0;       ///< |v[argmax]|^2
  double total = 0.0;      ///< sum of |v[i]|^2 over the scan
};

/// One fused pass over |v[i]|^2: argmax (lowest index wins ties), the peak
/// power, and the total power summed in index order. Scalar at every SIMD
/// level (an AVX2 variant measured slower than the scalar loop), so EXACT.
/// n == 0 returns a zeroed result.
PowerPeak power_peak_scan(const Cplx* v, std::size_t n);

// ---------------------------------------------------------------------------
// Weighted accumulate (IDW interpolation)
// ---------------------------------------------------------------------------

struct IdwAccum {
  double wsum = 0.0;  ///< sum of 1/dist^power
  double vsum = 0.0;  ///< sum of value/dist^power
};

/// IDW accumulator over `n` (distance, value) pairs: w_i = dist_i^-power.
/// Scalar accumulates in index order with w_i = 1/std::pow(dist_i, power)
/// (the historical loop). SIMD specializes power == 2.0 and power == 1.0
/// (w = 1/(d*d), 1/d) with lane-partial sums: TOLERANCE, rel <= 1e-12 on
/// wsum/vsum. Any other power falls back to scalar (EXACT). Distances must
/// be positive (callers handle the exact-hit shortcut first).
IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power);

// ---------------------------------------------------------------------------
// Squared-distance argmin (k-means assignment)
// ---------------------------------------------------------------------------

/// assignment[i] = argmin_c (px[i]-cx[c])^2 + (py[i]-cy[c])^2, lowest center
/// index winning ties. EXACT: SIMD vectorizes across points, iterating
/// centers in index order with a strict-less update, the same per-element
/// arithmetic as the scalar loop. Returns 1 when any assignment[i] changed
/// from its previous content, else 0 (the k-means convergence flag).
int kmeans_assign(const double* px, const double* py, std::size_t n_points,
                  const double* cx, const double* cy, std::size_t n_centers,
                  int* assignment);

/// best_d2[i] = min_c (px[i]-cx[c])^2 + (py[i]-cy[c])^2. EXACT (min is
/// order-insensitive for finite doubles). Used by k-means++ seeding.
void min_dist2(const double* px, const double* py, std::size_t n_points,
               const double* cx, const double* cy, std::size_t n_centers,
               double* best_d2);

// ---------------------------------------------------------------------------
// Fused log-distance / path-loss evaluation (channel sampling)
// ---------------------------------------------------------------------------

/// Scalar reference for one distance: free-space path loss, dB. This is the
/// single definition of the formula; rf::fspl_db delegates here.
double fspl_db_one(double distance_m, double frequency_hz);

/// out[i] = free-space path loss of dist_m[i] (clamped below at 1 m), dB.
/// Scalar calls std::log10 per element (the historical rf::fspl_db loop);
/// SIMD evaluates the whole chain — product, range reduction, polynomial
/// log10, scale — four lanes at a time. TOLERANCE: abs <= 1e-9 dB (measured
/// error is ~1e-12 dB; the bound leaves headroom for future polynomials).
void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz);

/// out[i] = fspl_db(reference_m) + 10*exponent*log10(max(d, ref)/ref), the
/// log-distance path-loss model over a batch. Same TOLERANCE as fspl_db.
void log_distance_db(const double* dist_m, double* out, std::size_t n, double frequency_hz,
                     double exponent, double reference_m);

}  // namespace skyran::kernels

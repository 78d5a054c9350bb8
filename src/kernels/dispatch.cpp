// Runtime dispatch: resolve the SIMD level once per process (SKYRAN_SIMD env
// > CPU feature probe) and route the kernels that have one to their AVX2
// variant when it is active. The level is a process-wide atomic, not
// thread-local, so pool workers always agree with the thread that launched
// them — that keeps the serial==parallel bit-identity contract intact at any
// level, because every thread of a process runs the same variant.
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kernels/detail.hpp"
#include "obs/obs.hpp"

namespace skyran::kernels {
namespace {

constexpr int kUnresolved = -1;
std::atomic<int> g_level{kUnresolved};

SimdLevel level_from_env() {
  const char* env = std::getenv("SKYRAN_SIMD");
  if (env != nullptr && (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
                         std::strcmp(env, "0") == 0)) {
    return SimdLevel::kScalar;
  }
  // Unset, empty, or any other value: probe the CPU.
#if defined(SKYRAN_KERNELS_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

void publish(SimdLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  SKYRAN_GAUGE_SET("kernel.simd_level", static_cast<int>(level));
}

}  // namespace

SimdLevel active_level() {
  int lvl = g_level.load(std::memory_order_relaxed);
  if (lvl == kUnresolved) {
    const SimdLevel resolved = level_from_env();
    // First resolver wins; a concurrent ScopedScalarKernels published a real
    // level already and must not be overwritten by the env default.
    int expected = kUnresolved;
    if (g_level.compare_exchange_strong(expected, static_cast<int>(resolved),
                                        std::memory_order_relaxed)) {
      SKYRAN_GAUGE_SET("kernel.simd_level", static_cast<int>(resolved));
      lvl = static_cast<int>(resolved);
    } else {
      lvl = expected;
    }
  }
  return static_cast<SimdLevel>(lvl);
}

const char* level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScopedScalarKernels::ScopedScalarKernels() : saved_(active_level()) {
  publish(SimdLevel::kScalar);
}

ScopedScalarKernels::~ScopedScalarKernels() { publish(saved_); }

// ---------------------------------------------------------------------------
// Public wrappers. Batch-level kernels record throughput counters; per-call
// overhead stays one relaxed load + branch when obs is disabled.
// ---------------------------------------------------------------------------

void multiply_conjugate(const Cplx* a, const Cplx* b, Cplx* out, std::size_t n) {
  SKYRAN_COUNTER_INC("kernel.mul_conj.calls");
  SKYRAN_COUNTER_ADD("kernel.mul_conj.elems", n);
  scalar::multiply_conjugate(a, b, out, n);
}

PowerPeak power_peak_scan(const Cplx* v, std::size_t n) {
  SKYRAN_COUNTER_INC("kernel.peak_scan.calls");
  SKYRAN_COUNTER_ADD("kernel.peak_scan.elems", n);
  return scalar::power_peak_scan(v, n);
}

void radix2_stage(Cplx* a, const Radix2Block* blocks, std::size_t n_blocks, std::size_t half,
                  const Cplx* tw, std::size_t n_minus, std::size_t n_plus) {
  // No counters: the correlator runs a dozen stages per SRS symbol. The
  // AVX2 variant takes two values per register and leaves no odd one over,
  // so odd counts (the first stage's, where half == 1) run scalar.
#if defined(SKYRAN_KERNELS_HAVE_AVX2)
  if (active_level() == SimdLevel::kAvx2 && n_minus % 2 == 0 && n_plus % 2 == 0)
    return avx2::radix2_stage(a, blocks, n_blocks, half, tw, n_minus, n_plus);
#endif
  scalar::radix2_stage(a, blocks, n_blocks, half, tw, n_minus, n_plus);
}

IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power) {
  // No per-call counters: this runs per grid cell with n ~ 8 and a counter
  // pair per call would dominate the kernel itself.
#if defined(SKYRAN_KERNELS_HAVE_AVX2)
  if ((power == 2.0 || power == 1.0) && active_level() == SimdLevel::kAvx2) {
    return avx2::idw_weigh(dist_m, value, n, power);
  }
#endif
  return scalar::idw_weigh(dist_m, value, n, power);
}

int kmeans_assign(const double* px, const double* py, std::size_t n_points,
                  const double* cx, const double* cy, std::size_t n_centers, int* assignment) {
  SKYRAN_COUNTER_INC("kernel.kmeans_assign.calls");
  SKYRAN_COUNTER_ADD("kernel.kmeans_assign.elems", n_points);
  return scalar::kmeans_assign(px, py, n_points, cx, cy, n_centers, assignment);
}

void min_dist2(const double* px, const double* py, std::size_t n_points,
               const double* cx, const double* cy, std::size_t n_centers, double* best_d2) {
  scalar::min_dist2(px, py, n_points, cx, cy, n_centers, best_d2);
}

void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz) {
  SKYRAN_COUNTER_INC("kernel.pathloss.calls");
  SKYRAN_COUNTER_ADD("kernel.pathloss.elems", n);
#if defined(SKYRAN_KERNELS_HAVE_AVX2)
  if (active_level() == SimdLevel::kAvx2) return avx2::fspl_db(dist_m, out, n, frequency_hz);
#endif
  scalar::fspl_db(dist_m, out, n, frequency_hz);
}

}  // namespace skyran::kernels

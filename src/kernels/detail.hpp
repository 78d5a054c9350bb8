// Internal: per-level kernel variants behind the public dispatch wrappers.
// scalar:: is always compiled; avx2:: (three kernels) only on
// x86-64, compiled with -mavx2 and invoked only after the runtime CPU check.
#pragma once

#include "kernels/kernels.hpp"

namespace skyran::kernels::scalar {

void multiply_conjugate(const Cplx* a, const Cplx* b, Cplx* out, std::size_t n);
PowerPeak power_peak_scan(const Cplx* v, std::size_t n);
void radix2_stage(Cplx* a, const Radix2Block* blocks, std::size_t n_blocks, std::size_t half,
                  const Cplx* tw, std::size_t n_minus, std::size_t n_plus);
IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power);
int kmeans_assign(const double* px, const double* py, std::size_t n_points,
                  const double* cx, const double* cy, std::size_t n_centers, int* assignment);
void min_dist2(const double* px, const double* py, std::size_t n_points,
               const double* cx, const double* cy, std::size_t n_centers, double* best_d2);
void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz);

}  // namespace skyran::kernels::scalar

#if defined(__x86_64__) || defined(_M_X64)
#define SKYRAN_KERNELS_HAVE_AVX2 1
namespace skyran::kernels::avx2 {

IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power);
void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz);
/// Even n_minus and n_plus only.
void radix2_stage(Cplx* a, const Radix2Block* blocks, std::size_t n_blocks, std::size_t half,
                  const Cplx* tw, std::size_t n_minus, std::size_t n_plus);

}  // namespace skyran::kernels::avx2
#endif


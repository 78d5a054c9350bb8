// Scalar reference kernels. These bodies are the pre-kernel-layer inner
// loops verbatim: SKYRAN_SIMD=off must reproduce historical outputs
// byte-for-byte (the golden-replay test pins this).
#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "kernels/detail.hpp"

namespace skyran::kernels {

double fspl_db_one(double distance_m, double frequency_hz) {
  const double d = std::max(distance_m, 1.0);
  return 20.0 * std::log10(4.0 * std::numbers::pi * d * frequency_hz / kSpeedOfLightMps);
}

namespace scalar {

void multiply_conjugate(const Cplx* a, const Cplx* b, Cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] * std::conj(b[i]);
  }
}

PowerPeak power_peak_scan(const Cplx* v, std::size_t n) {
  PowerPeak out;
  if (n == 0) return out;
  out.peak = std::norm(v[0]);
  for (std::size_t i = 0; i < n; ++i) {
    const double m = std::norm(v[i]);
    out.total += m;
    if (m > out.peak) {
      out.peak = m;
      out.argmax = i;
    }
  }
  return out;
}

void radix2_stage(Cplx* a, const Radix2Block* blocks, std::size_t n_blocks, std::size_t half,
                  const Cplx* tw, std::size_t n_minus, std::size_t n_plus) {
  for (std::size_t bi = 0; bi < n_blocks; ++bi) {
    Cplx* const lo = a + blocks[bi].start;
    Cplx* const hi = lo + half;
    switch (blocks[bi].kind) {
      case Radix2Block::kBoth:
        for (std::size_t j = 0; j < n_minus; ++j) {
          const Cplx u = lo[j];
          const Cplx v = hi[j] * tw[j];
          lo[j] = u + v;
          hi[j] = u - v;
        }
        for (std::size_t j = n_minus; j < n_plus; ++j) lo[j] = lo[j] + hi[j] * tw[j];
        break;
      case Radix2Block::kLowerOnly:
        std::copy(lo, lo + n_minus, hi);
        break;
      case Radix2Block::kUpperOnly:
        for (std::size_t j = 0; j < n_minus; ++j) {
          const Cplx v = hi[j] * tw[j];
          lo[j] = v;
          hi[j] = -v;
        }
        for (std::size_t j = n_minus; j < n_plus; ++j) lo[j] = hi[j] * tw[j];
        break;
    }
  }
}

IdwAccum idw_weigh(const double* dist_m, const double* value, std::size_t n, double power) {
  IdwAccum acc;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = 1.0 / std::pow(dist_m[i], power);
    acc.wsum += w;
    acc.vsum += w * value[i];
  }
  return acc;
}

int kmeans_assign(const double* px, const double* py, std::size_t n_points,
                  const double* cx, const double* cy, std::size_t n_centers, int* assignment) {
  int changed = 0;
  for (std::size_t i = 0; i < n_points; ++i) {
    int best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < n_centers; ++c) {
      const double dx = px[i] - cx[c];
      const double dy = py[i] - cy[c];
      const double d2 = dx * dx + dy * dy;
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<int>(c);
      }
    }
    if (assignment[i] != best) {
      assignment[i] = best;
      changed = 1;
    }
  }
  return changed;
}

void min_dist2(const double* px, const double* py, std::size_t n_points,
               const double* cx, const double* cy, std::size_t n_centers, double* best_d2) {
  for (std::size_t i = 0; i < n_points; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < n_centers; ++c) {
      const double dx = px[i] - cx[c];
      const double dy = py[i] - cy[c];
      best = std::min(best, dx * dx + dy * dy);
    }
    best_d2[i] = best;
  }
}

void fspl_db(const double* dist_m, double* out, std::size_t n, double frequency_hz) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fspl_db_one(dist_m[i], frequency_hz);
  }
}

}  // namespace scalar
}  // namespace skyran::kernels

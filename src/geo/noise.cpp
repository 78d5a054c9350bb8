#include "geo/noise.hpp"

#include <cmath>

#include "geo/contract.hpp"
#include "geo/hash.hpp"

namespace skyran::geo {

namespace {

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

}  // namespace

ValueNoise::ValueNoise(std::uint64_t seed, double scale, int octaves, double persistence)
    : seed_(seed), scale_(scale), octaves_(octaves), persistence_(persistence) {
  expects(scale > 0.0, "ValueNoise: scale must be positive");
  expects(octaves >= 1, "ValueNoise: need at least one octave");
  expects(persistence > 0.0 && persistence <= 1.0, "ValueNoise: persistence in (0,1]");
}

double ValueNoise::lattice(std::int64_t ix, std::int64_t iy) const {
  const std::uint64_t h =
      mix64(seed_ ^ mix64(static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL) ^
            mix64(static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL));
  // Map to [-1, 1).
  return static_cast<double>(h >> 11) * (2.0 / 9007199254740992.0) - 1.0;
}

double ValueNoise::base(Vec2 p) const {
  const double fx = std::floor(p.x);
  const double fy = std::floor(p.y);
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  const double tx = smoothstep(p.x - fx);
  const double ty = smoothstep(p.y - fy);
  const double v00 = lattice(ix, iy);
  const double v10 = lattice(ix + 1, iy);
  const double v01 = lattice(ix, iy + 1);
  const double v11 = lattice(ix + 1, iy + 1);
  const double a = v00 + (v10 - v00) * tx;
  const double b = v01 + (v11 - v01) * tx;
  return a + (b - a) * ty;
}

double ValueNoise::sample(Vec2 p) const {
  double amplitude = 1.0;
  double frequency = 1.0 / scale_;
  double sum = 0.0;
  double norm = 0.0;
  for (int o = 0; o < octaves_; ++o) {
    // Offset octaves so their lattices do not align.
    const Vec2 q{p.x * frequency + 137.13 * o, p.y * frequency + 91.7 * o};
    sum += amplitude * base(q);
    norm += amplitude;
    amplitude *= persistence_;
    frequency *= 2.0;
  }
  return sum / norm;
}

}  // namespace skyran::geo

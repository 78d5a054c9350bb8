#include "scenario/shapes.hpp"

#include <algorithm>
#include <cmath>

#include "geo/contract.hpp"
#include "geo/hash.hpp"

namespace skyran::scenario {

namespace {

using geo::mix64;
using geo::u01;

constexpr std::uint64_t kStreamAttend = 0x201;
constexpr std::uint64_t kStreamSpotR = 0x202;
constexpr std::uint64_t kStreamSpotA = 0x203;

// Gaussian bump centered at peak, evaluated on the 24 h circle (the nearest
// wrapped distance, so a 20:30 evening bump's tail reaches 00:30).
double bump(double hour, double peak, double level, double width) {
  double d = std::abs(hour - peak);
  d = std::min(d, 24.0 - d);
  return level * std::exp(-(d * d) / (2.0 * width * width));
}

}  // namespace

double diurnal_level(double hour) {
  hour = hour - 24.0 * std::floor(hour / 24.0);
  const double level = kNightFloor + bump(hour, kMorningPeakH, kMorningLevel, kMorningWidthH) +
                       bump(hour, kEveningPeakH, kEveningLevel, kEveningWidthH);
  return std::clamp(level, 0.0, 1.0);
}

double crowd_engagement(const FlashCrowd& crowd, double hour) {
  expects(crowd.fill_h > 0.0 && crowd.drain_h > 0.0,
          "crowd_engagement: fill and drain ramps must be positive");
  hour = hour - 24.0 * std::floor(hour / 24.0);
  const double t = hour - crowd.start_h;
  if (t <= 0.0) return 0.0;
  if (t < crowd.fill_h) return t / crowd.fill_h;
  const double hold_end = crowd.fill_h + crowd.hold_h;
  if (t < hold_end) return 1.0;
  const double drain_end = hold_end + crowd.drain_h;
  if (t < drain_end) return (drain_end - t) / crowd.drain_h;
  return 0.0;
}

bool crowd_applies(const FlashCrowd& crowd, std::size_t ue, geo::Vec2 base,
                   std::uint64_t seed, std::uint64_t salt) {
  if (crowd.kind == CrowdKind::kEvacuation) {
    return base.dist(crowd.center) < crowd.radius_m;
  }
  return u01(seed ^ mix64(salt), kStreamAttend, ue) < crowd.ue_fraction;
}

geo::Vec2 crowd_position(const FlashCrowd& crowd, geo::Vec2 base, std::size_t ue,
                         double engagement, std::uint64_t seed, std::uint64_t salt) {
  const double e = std::clamp(engagement, 0.0, 1.0);
  if (e <= 0.0) return base;
  geo::Vec2 target{};
  if (crowd.kind == CrowdKind::kStadium) {
    // The UE's seat: uniform over the venue disk, fixed per (crowd, ue).
    const std::uint64_t s = seed ^ mix64(salt);
    const double r = crowd.radius_m * std::sqrt(u01(s, kStreamSpotR, ue));
    const double a = 2.0 * M_PI * u01(s, kStreamSpotA, ue);
    target = {crowd.center.x + r * std::cos(a), crowd.center.y + r * std::sin(a)};
  } else {
    // Flee radially to 2.5 radii out; a UE exactly at the center picks a
    // counter-random direction.
    geo::Vec2 dir = base - crowd.center;
    if (dir.norm() <= 1e-9) {
      const double a = 2.0 * M_PI * u01(seed ^ mix64(salt), kStreamSpotA, ue);
      dir = {std::cos(a), std::sin(a)};
    } else {
      dir = dir.normalized();
    }
    target = crowd.center + dir * (2.5 * crowd.radius_m);
  }
  return base + (target - base) * e;
}

double crowd_rate_multiplier(const FlashCrowd& crowd, double engagement) {
  const double e = std::clamp(engagement, 0.0, 1.0);
  return 1.0 + e * (crowd.rate_boost - 1.0);
}

}  // namespace skyran::scenario

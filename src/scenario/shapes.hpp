// Deterministic demand shapes for day-in-the-life campaigns: the diurnal
// traffic curve that modulates every UE's offered load across the 24 h
// horizon, and scripted flash crowds (stadium fill/drain, outage
// evacuation) that pull UEs toward a hotspot and boost their demand while
// engaged.
//
// Like mobility::commuter, everything is a pure function of its arguments —
// no internal state, no wall clock — so a campaign resumed from a checkpoint
// recomputes identical shapes at any (hour, epoch).
#pragma once

#include <cstddef>
#include <cstdint>

#include "geo/vec.hpp"

namespace skyran::scenario {

/// Two-bump diurnal demand curve: an overnight floor plus Gaussian morning
/// and evening bumps (peak hour, level, width in hours), clamped to 1.0 at
/// the evening peak.
inline constexpr double kNightFloor = 0.15;
inline constexpr double kMorningPeakH = 9.0;
inline constexpr double kMorningLevel = 0.7;
inline constexpr double kMorningWidthH = 1.8;
inline constexpr double kEveningPeakH = 20.5;
inline constexpr double kEveningLevel = 1.0;
inline constexpr double kEveningWidthH = 2.2;

/// Demand multiplier of the diurnal curve at fractional hour-of-day `hour`,
/// in (0, 1]: a multiplier on each UE's base rate. Wraps mod 24, so the
/// evening bump's tail reaches past midnight.
double diurnal_level(double hour);

enum class CrowdKind : std::uint8_t {
  kStadium,     ///< a fraction of UEs converge on a venue, then drain home
  kEvacuation,  ///< UEs inside the radius flee outward (e.g. a ground outage)
};

/// One scripted flash crowd: trapezoidal engagement (fill, hold, drain)
/// anchored at a venue. Stadium crowds pull a counter-random `ue_fraction`
/// of the population toward `center`; evacuations push every UE inside
/// `radius_m` away from it.
struct FlashCrowd {
  CrowdKind kind = CrowdKind::kStadium;
  double start_h = 18.0;
  double fill_h = 1.0;
  double hold_h = 2.0;
  double drain_h = 1.0;
  geo::Vec2 center{};
  double radius_m = 80.0;
  double ue_fraction = 0.25;  ///< stadium: fraction of UEs attending
  double rate_boost = 3.0;    ///< traffic multiplier at full engagement
};

/// Engagement in [0, 1] at hour-of-day `hour`: 0 outside the event, ramping
/// linearly over fill_h, 1 through hold_h, ramping down over drain_h.
double crowd_engagement(const FlashCrowd& crowd, double hour);

/// Whether `ue` takes part in `crowd`. Stadium: a counter-random draw from
/// (seed, salt, ue) against ue_fraction. Evacuation: membership depends on
/// position, not identity — true when `base` (the UE's crowd-free position)
/// is inside the crowd radius. `salt` distinguishes crowds sharing a seed.
bool crowd_applies(const FlashCrowd& crowd, std::size_t ue, geo::Vec2 base,
                   std::uint64_t seed, std::uint64_t salt);

/// Position override at engagement `e` for a participating UE: linear blend
/// from `base` toward the UE's counter-random spot in the venue (stadium) or
/// toward a point 2.5 radii out along the flee direction (evacuation).
geo::Vec2 crowd_position(const FlashCrowd& crowd, geo::Vec2 base, std::size_t ue,
                         double engagement, std::uint64_t seed, std::uint64_t salt);

/// Traffic multiplier for a participating UE at engagement `e`:
/// 1 + e * (rate_boost - 1).
double crowd_rate_multiplier(const FlashCrowd& crowd, double engagement);

}  // namespace skyran::scenario

// Commuter-flow mobility for day-in-the-life campaigns: a population of UEs
// that lives in residential clusters, walks L-shaped Manhattan paths to
// office clusters across a staggered morning window, and flows back across
// the evening window.
//
// Everything here is a pure function of (plan, ue, hour-of-day): there is no
// internal state, no RNG object, no history. That is deliberate — the
// scenario::Campaign resume contract requires that UE positions at any
// (hour, epoch) can be recomputed after a crash without replaying the hours
// in between, so positions must never depend on an evolving random walk.
// All randomness (cluster centers, per-UE home/office draw, departure
// stagger) is counter-based off plan.seed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geo/vec.hpp"

namespace skyran::mobility {

/// Manhattan street grid the walkers snap to: avenues run north-south every
/// kStreetPitchXM, streets east-west every kStreetPitchYM (terrain::make_nyc
/// uses the same 85 m / 65 m).
inline constexpr double kStreetPitchXM = 85.0;
inline constexpr double kStreetPitchYM = 65.0;

/// Commute windows [start, end) in wall-clock hours of a 24 h day. Walkers
/// depart staggered across the first 30% of a window and spend the rest
/// walking: home -> office in the morning, office -> home in the evening.
inline constexpr double kMorningStartH = 7.0;
inline constexpr double kMorningEndH = 9.5;
inline constexpr double kEveningStartH = 17.0;
inline constexpr double kEveningEndH = 19.5;
static_assert(kMorningStartH < kMorningEndH && kMorningEndH <= kEveningStartH &&
                  kEveningStartH < kEveningEndH,
              "commute windows must be ordered morning < evening");

/// One commuter population. Cluster centers and per-UE assignments are
/// derived from `seed`.
struct CommuterPlan {
  geo::Vec2 area_min{0.0, 0.0};
  geo::Vec2 area_max{1200.0, 1200.0};
  std::uint64_t seed = 1;
};

/// Snap `p` to the nearest street-grid line (whichever of the nearest avenue
/// or nearest street is closer), clamped into [area_min, area_max].
geo::Vec2 snap_to_street_grid(const CommuterPlan& plan, geo::Vec2 p);

/// UE's home: a counter-random point inside its residential cluster, snapped
/// to the street grid. Pure function of (plan, ue).
geo::Vec2 commuter_home(const CommuterPlan& plan, std::size_t ue);

/// UE's office: same construction over the office clusters.
geo::Vec2 commuter_office(const CommuterPlan& plan, std::size_t ue);

/// Fraction of the home->office walk completed at hour-of-day `hour`
/// (in [0, 24)): 0 before this UE departs in the morning window, 1 from
/// morning arrival until its evening departure, back to 0 after the evening
/// walk. Monotone within each window; per-UE departure stagger decorrelates
/// the flow so the population drains gradually, not as one step.
double commute_progress(const CommuterPlan& plan, std::size_t ue, double hour);

/// Position at hour-of-day `hour` in [0, 24): home / office at rest, and an
/// L-shaped Manhattan walk (east-west leg along the home street first, then
/// north-south along the office avenue) while commuting.
geo::Vec2 commuter_position(const CommuterPlan& plan, std::size_t ue, double hour);

}  // namespace skyran::mobility

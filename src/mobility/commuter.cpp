#include "mobility/commuter.hpp"

#include <algorithm>
#include <cmath>

#include "geo/contract.hpp"
#include "geo/hash.hpp"

namespace skyran::mobility {

namespace {

using geo::u01;

constexpr std::uint64_t kStreamHomeCluster = 0x101;
constexpr std::uint64_t kStreamOfficeCluster = 0x102;
constexpr std::uint64_t kStreamHomeJitterR = 0x103;
constexpr std::uint64_t kStreamHomeJitterA = 0x104;
constexpr std::uint64_t kStreamOfficeJitterR = 0x105;
constexpr std::uint64_t kStreamOfficeJitterA = 0x106;
constexpr std::uint64_t kStreamDepart = 0x107;

constexpr int kResidentialClusters = 3;
constexpr int kOfficeClusters = 2;
constexpr double kClusterRadiusM = 90.0;

geo::Vec2 clamp_to_area(const CommuterPlan& plan, geo::Vec2 p) {
  return {std::clamp(p.x, plan.area_min.x, plan.area_max.x),
          std::clamp(p.y, plan.area_min.y, plan.area_max.y)};
}

// Cluster center c of `count` clusters for the given stream: counter-random
// inside the middle 80% of the area so cluster disks stay mostly inside.
geo::Vec2 cluster_center(const CommuterPlan& plan, std::uint64_t stream, int c) {
  const geo::Vec2 span = plan.area_max - plan.area_min;
  const double fx = 0.1 + 0.8 * u01(plan.seed, stream, 2 * static_cast<std::uint64_t>(c));
  const double fy = 0.1 + 0.8 * u01(plan.seed, stream, 2 * static_cast<std::uint64_t>(c) + 1);
  return {plan.area_min.x + fx * span.x, plan.area_min.y + fy * span.y};
}

geo::Vec2 cluster_point(const CommuterPlan& plan, std::size_t ue, int clusters,
                        std::uint64_t cluster_stream, std::uint64_t r_stream,
                        std::uint64_t a_stream) {
  const int c = static_cast<int>(ue % static_cast<std::size_t>(clusters));
  const geo::Vec2 center = cluster_center(plan, cluster_stream, c);
  // sqrt(u) radius => uniform density over the cluster disk.
  const double r = kClusterRadiusM * std::sqrt(u01(plan.seed, r_stream, ue));
  const double a = 2.0 * M_PI * u01(plan.seed, a_stream, ue);
  const geo::Vec2 p{center.x + r * std::cos(a), center.y + r * std::sin(a)};
  return snap_to_street_grid(plan, p);
}

double snap_axis(double v, double lo, double pitch) {
  return lo + std::round((v - lo) / pitch) * pitch;
}

}  // namespace

geo::Vec2 snap_to_street_grid(const CommuterPlan& plan, geo::Vec2 p) {
  p = clamp_to_area(plan, p);
  const double ax = snap_axis(p.x, plan.area_min.x, kStreetPitchXM);
  const double sy = snap_axis(p.y, plan.area_min.y, kStreetPitchYM);
  // Snap to whichever grid line is closer: the nearest avenue (fix x) or the
  // nearest street (fix y) — walkers stand on a road, not inside a block.
  if (std::abs(ax - p.x) <= std::abs(sy - p.y)) {
    return clamp_to_area(plan, {ax, p.y});
  }
  return clamp_to_area(plan, {p.x, sy});
}

geo::Vec2 commuter_home(const CommuterPlan& plan, std::size_t ue) {
  return cluster_point(plan, ue, kResidentialClusters, kStreamHomeCluster,
                       kStreamHomeJitterR, kStreamHomeJitterA);
}

geo::Vec2 commuter_office(const CommuterPlan& plan, std::size_t ue) {
  return cluster_point(plan, ue, kOfficeClusters, kStreamOfficeCluster,
                       kStreamOfficeJitterR, kStreamOfficeJitterA);
}

double commute_progress(const CommuterPlan& plan, std::size_t ue, double hour) {
  expects(hour >= 0.0 && hour < 24.0, "commute_progress: hour must be in [0,24)");
  // Departure staggered over the first 30% of each window; the remaining 70%
  // is this UE's walk duration, so the latest departure still arrives.
  const double stagger = 0.3 * u01(plan.seed, kStreamDepart, ue);
  const auto walk = [stagger](double t, double start, double end) {
    const double w = end - start;
    const double depart = start + stagger * w;
    return std::clamp((t - depart) / (0.7 * w), 0.0, 1.0);
  };
  if (hour < kMorningStartH) return 0.0;
  if (hour < kMorningEndH) return walk(hour, kMorningStartH, kMorningEndH);
  if (hour < kEveningStartH) return 1.0;
  if (hour < kEveningEndH) return 1.0 - walk(hour, kEveningStartH, kEveningEndH);
  return 0.0;
}

geo::Vec2 commuter_position(const CommuterPlan& plan, std::size_t ue, double hour) {
  const geo::Vec2 home = commuter_home(plan, ue);
  const geo::Vec2 office = commuter_office(plan, ue);
  const double s = commute_progress(plan, ue, hour);
  if (s <= 0.0) return home;
  if (s >= 1.0) return office;
  // L-shaped Manhattan path: east-west along the home street to the office's
  // avenue, then north-south. Progress is measured in walked meters so speed
  // is constant along the whole L.
  const double leg_x = std::abs(office.x - home.x);
  const double leg_y = std::abs(office.y - home.y);
  const double total = leg_x + leg_y;
  if (total <= 0.0) return office;
  const double walked = s * total;
  if (walked <= leg_x) {
    const double dir = office.x >= home.x ? 1.0 : -1.0;
    return {home.x + dir * walked, home.y};
  }
  const double dir = office.y >= home.y ? 1.0 : -1.0;
  return {office.x, home.y + dir * (walked - leg_x)};
}

}  // namespace skyran::mobility

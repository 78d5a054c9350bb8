#include "rf/channel.hpp"

#include "geo/contract.hpp"
#include "kernels/kernels.hpp"
#include "rf/models.hpp"

namespace skyran::rf {

FsplChannel::FsplChannel(double frequency_hz) : frequency_hz_(frequency_hz) {
  expects(frequency_hz > 0.0, "FsplChannel: frequency must be positive");
}

double FsplChannel::path_loss_db(geo::Vec3 a, geo::Vec3 b) const {
  return fspl_db(a.dist(b), frequency_hz_);
}

void FsplChannel::path_loss_db_row(const geo::Vec3* a, std::size_t n, geo::Vec3 b,
                                   double* out) const {
  // Distances gather into `out` in place, then one fused kernels-layer pass
  // turns them into path loss (SIMD log10 when available; scalar level is
  // bit-identical to the per-point path).
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i].dist(b);
  kernels::fspl_db(out, out, n, frequency_hz_);
}

namespace {

/// Decorrelation distance of the LOS shadowing field (NLOS: 0.6 of it).
constexpr double kShadowingCorrelationM = 30.0;

std::shared_ptr<const terrain::Terrain> non_null(std::shared_ptr<const terrain::Terrain> t) {
  expects(t != nullptr, "RayTraceChannel: terrain must not be null");
  return t;
}

}  // namespace

RayTraceChannel::RayTraceChannel(std::shared_ptr<const terrain::Terrain> terrain,
                                 RayTraceChannelParams params, std::uint64_t seed)
    : terrain_(non_null(std::move(terrain))),
      ceiling_(*terrain_),
      params_(params),
      los_shadowing_(seed ^ 0x105ULL, params.shadowing_sigma_db, kShadowingCorrelationM),
      nlos_shadowing_(seed ^ 0x4105ULL, params.shadowing_sigma_db + params.nlos_extra_sigma_db,
                      kShadowingCorrelationM * 0.6) {}

RayTraceChannel::Link RayTraceChannel::trace(geo::Vec3 a, geo::Vec3 b) const {
  const RayObstruction ray = trace_ray(*terrain_, ceiling_, a, b);
  const double fspl = fspl_db(ray.total_length_m, kCarrierHz);
  double excess = obstruction_loss_db(ray);
  if (params_.use_knife_edge && !ray.line_of_sight()) {
    // Whichever field is stronger arrives: through-material or diffracted.
    excess = std::min(excess, knife_edge_loss_db(*terrain_, a, b, kCarrierHz));
  }
  const double shadow =
      ray.line_of_sight() ? los_shadowing_.loss_db(a, b) : nlos_shadowing_.loss_db(a, b);
  return {fspl + excess + shadow, ray.line_of_sight()};
}

double RayTraceChannel::path_loss_db(geo::Vec3 a, geo::Vec3 b) const {
  return trace(a, b).path_loss_db;
}

bool RayTraceChannel::line_of_sight(geo::Vec3 a, geo::Vec3 b) const {
  return trace(a, b).line_of_sight;
}

}  // namespace skyran::rf

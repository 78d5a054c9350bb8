#include "uav/gps.hpp"

#include <algorithm>

#include "geo/contract.hpp"

namespace skyran::uav {

GpsSensor::GpsSensor(std::uint64_t seed, double horizontal_sigma_m, double vertical_sigma_m)
    : rng_(seed), horizontal_(0.0, horizontal_sigma_m), vertical_(0.0, vertical_sigma_m) {
  expects(horizontal_sigma_m >= 0.0, "GpsSensor: horizontal sigma must be >= 0");
  expects(vertical_sigma_m >= 0.0, "GpsSensor: vertical sigma must be >= 0");
}

GpsFix GpsSensor::sample(geo::Vec3 p, double t) {
  if (outage_left_ > 0) {
    --outage_left_;
    return {t, have_last_ ? last_valid_ : p, false};
  }
  const GpsFix fix{t, {p.x + horizontal_(rng_), p.y + horizontal_(rng_), p.z + vertical_(rng_)},
                   true};
  last_valid_ = fix.position;
  have_last_ = true;
  return fix;
}

void GpsSensor::force_outage_for(int samples) {
  expects(samples >= 0, "GpsSensor::force_outage_for: sample count must be >= 0");
  outage_left_ = std::max(outage_left_, samples);
}

}  // namespace skyran::uav

// GPS sensor model: the UAV's flight controller reports position at 50 Hz
// with 1-5 m horizontal accuracy (paper Sec 3.2.1, 3.3). Fixes carry the
// global system-clock timestamp used to align SRS reports.
#pragma once

#include <cstdint>
#include <random>

#include "geo/mt19937.hpp"
#include "geo/vec.hpp"

namespace skyran::uav {

struct GpsFix {
  double time_s = 0.0;
  geo::Vec3 position;  ///< reported (noisy) position
  bool valid = true;   ///< false during an outage (no usable fix)
};

class GpsSensor {
 public:
  /// `horizontal_sigma_m` / `vertical_sigma_m`: per-axis Gaussian error.
  explicit GpsSensor(std::uint64_t seed, double horizontal_sigma_m = 1.5,
                     double vertical_sigma_m = 2.5);

  /// Sample a fix of the true position `p` at time `t`. During an outage the
  /// fix repeats the last valid position with `valid = false`.
  GpsFix sample(geo::Vec3 p, double t);

  /// Force the next `samples` fixes to be outages. Multirotor GPS loses
  /// lock near structures; a scripted sim::FaultPlan kGpsOutage window
  /// drives this so localization is tested against the gaps.
  void force_outage_for(int samples);

  bool in_outage() const { return outage_left_ > 0; }

  static constexpr double kRateHz = 50.0;

 private:
  geo::Mt19937_64 rng_;
  std::normal_distribution<double> horizontal_;
  std::normal_distribution<double> vertical_;
  int outage_left_ = 0;
  geo::Vec3 last_valid_;
  bool have_last_ = false;
};

}  // namespace skyran::uav

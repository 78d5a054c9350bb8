#include "rf/models.hpp"

#include <algorithm>
#include <cmath>

#include "geo/contract.hpp"
#include "kernels/kernels.hpp"
#include "rf/units.hpp"

namespace skyran::rf {

// The kernels layer owns the path-loss formula (it cannot depend on rf);
// this layer keeps its own constant for unit documentation, so pin them.
static_assert(kSpeedOfLight == kernels::kSpeedOfLightMps,
              "rf and kernels speed-of-light constants diverged");

double fspl_db(double distance_m, double frequency_hz) {
  expects(frequency_hz > 0.0, "fspl_db: frequency must be positive");
  return kernels::fspl_db_one(distance_m, frequency_hz);
}

}  // namespace skyran::rf

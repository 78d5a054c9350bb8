// Offset-incorporated multilateration (paper Sec 3.2.3). Each GPS-ToF tuple
// gives a range d_i = |p_i - u| + b + noise from the UAV position p_i to the
// UE ground position u, where b is the payload's constant SRS processing
// offset. Over a 20-30 m flight b cannot be told apart from radial UE
// displacement per UE, so the solve is joint: one b shared by every UE,
// chosen by a 1-D scan under a bench-calibration prior, then a fixed-offset
// (x, y) fit per UE - Gauss-Newton with Huber weights from the best grid
// starts (the paper's "least-squares formulation with gradient-descent
// iteration, robust to noisy UAV measurements").
#pragma once

#include <span>
#include <vector>

#include "geo/rect.hpp"
#include "localization/tuples.hpp"

namespace skyran::localization {

struct MultilaterationResult {
  geo::Vec2 position;        ///< estimated UE ground position
  double offset_m = 0.0;     ///< the range offset b the fit used
  double rms_residual_m = 0.0;
  int iterations = 0;
};

/// Solve for a single UE's position with a KNOWN offset (well-conditioned:
/// grid init + Gauss-Newton over (x, y) only). Needs at least 4 tuples.
MultilaterationResult multilaterate_fixed_offset(std::span<const GpsTofTuple> tuples,
                                                 geo::Rect search_area, double ue_altitude_m,
                                                 double offset_m);

struct JointMultilaterationResult {
  std::vector<MultilaterationResult> per_ue;
  double shared_offset_m = 0.0;
};

/// Joint localization of all UEs with one shared constant range offset
/// (the onboard ToF processing delay, constant for the system, Sec 3.2.3).
/// A 1-D scan over the offset, penalized by the payload's bench calibration
/// (40 m, sigma 12 m), wraps per-UE fixed-offset fits; sharing the offset
/// across UEs in different directions breaks the radial degeneracy a short
/// flight leaves per UE. UEs with fewer than 4 tuples get a default result.
JointMultilaterationResult multilaterate_joint(std::span<const GpsTofSeries> per_ue_tuples,
                                               geo::Rect search_area,
                                               std::span<const double> ue_altitudes_m);

}  // namespace skyran::localization

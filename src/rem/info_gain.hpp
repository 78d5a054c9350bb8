// Trajectory information gain (paper Step 6.4): how much *new* RF knowledge
// a candidate measurement tour adds for each UE, quantified as that tour's
// distance from everything already flown for the UE. New UEs (empty history)
// get a large fixed gain Imax.
#pragma once

#include <vector>

#include "geo/path.hpp"

namespace skyran::rem {

/// All trajectories flown for one UE in prior epochs.
using TrajectoryHistory = std::vector<geo::Path>;

struct InfoGainParams {
  double i_max = 250.0;  ///< gain assigned to a UE with no history, m
};

/// Gain of `candidate` for one UE: the minimum over historical trajectories
/// of the mean distance from candidate sample points to that trajectory
/// (i_max when the history is empty), clamped to i_max.
double info_gain_for_ue(const geo::Path& candidate, const TrajectoryHistory& history,
                        const InfoGainParams& params = {});

/// Mean gain over all UEs (paper's "average information gain").
double average_info_gain(const geo::Path& candidate,
                         const std::vector<TrajectoryHistory>& per_ue_history,
                         const InfoGainParams& params = {});

}  // namespace skyran::rem

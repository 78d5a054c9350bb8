#include "rem/info_gain.hpp"

#include <algorithm>

#include "geo/contract.hpp"

namespace skyran::rem {

namespace {

constexpr double kSampleSpacingM = 8.0;  ///< candidate-path sampling pitch

}  // namespace

double info_gain_for_ue(const geo::Path& candidate, const TrajectoryHistory& history,
                        const InfoGainParams& params) {
  expects(!candidate.empty(), "info_gain_for_ue: empty candidate path");
  if (history.empty()) return params.i_max;
  double gain = params.i_max;
  for (const geo::Path& prior : history) {
    if (prior.empty()) continue;
    gain = std::min(gain, candidate.mean_distance_to(prior, kSampleSpacingM));
  }
  return gain;
}

double average_info_gain(const geo::Path& candidate,
                         const std::vector<TrajectoryHistory>& per_ue_history,
                         const InfoGainParams& params) {
  expects(!per_ue_history.empty(), "average_info_gain: need at least one UE");
  double sum = 0.0;
  for (const TrajectoryHistory& h : per_ue_history)
    sum += info_gain_for_ue(candidate, h, params);
  return sum / static_cast<double>(per_ue_history.size());
}

}  // namespace skyran::rem

// Closed-form propagation model: free-space path loss (the paper's baseline
// REM seed, Sec 3.5).
#pragma once

namespace skyran::rf {

/// Free-space path loss between isotropic antennas, dB.
/// `distance_m` is clamped below at 1 m to keep the model finite.
double fspl_db(double distance_m, double frequency_hz);

}  // namespace skyran::rf

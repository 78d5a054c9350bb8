// RF unit conversions and the thermal-noise floor. All powers are dBm, all
// gains/losses dB, all frequencies Hz unless a suffix says otherwise.
#pragma once

#include <cmath>

namespace skyran::rf {

/// Speed of light, m/s.
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Thermal noise density at ~290 K, dBm/Hz.
inline constexpr double kThermalNoiseDbmPerHz = -174.0;

inline double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }
inline double linear_to_db(double lin) { return 10.0 * std::log10(lin); }

inline double dbm_to_milliwatt(double dbm) { return db_to_linear(dbm); }

/// Noise floor of a receiver with the given bandwidth and noise figure, dBm.
inline double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) {
  return kThermalNoiseDbmPerHz + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

}  // namespace skyran::rf

// Adaptive modulation & coding: maps SNR to CQI (36.213 Table 7.2.3-1
// efficiencies with conventional BLER-10% switching thresholds) and on to
// achievable throughput. This is how SkyRAN converts REM SNR values into the
// throughput numbers its placement objective and the paper's figures report.
#pragma once

#include "lte/sampling.hpp"

namespace skyran::lte {

struct CqiEntry {
  int cqi = 0;
  double snr_threshold_db = 0.0;  ///< minimum SNR at which this CQI is used
  double efficiency_bps_per_hz = 0.0;
};

/// The 15-entry CQI table (index 0 = CQI 1).
const CqiEntry* cqi_table();
int cqi_table_size();

/// CQI selected for `snr_db` (0 = out of range / no service).
int snr_to_cqi(double snr_db);

/// Spectral efficiency for a CQI in [0, 15]; 0 for CQI 0.
double cqi_efficiency(int cqi);

/// Fraction of physical resources lost to control/reference overhead
/// (PDCCH, CRS, PBCH/PSS/SSS): a conventional ~25%.
inline constexpr double kL1OverheadFraction = 0.25;

/// Full-bandwidth MAC throughput a single UE achieves at `snr_db`, bit/s.
/// This is the per-UE "average throughput" metric used in the paper's maps
/// (each UE measured at full allocation, not capacity-shared).
double throughput_bps(double snr_db, const BandwidthConfig& carrier);

}  // namespace skyran::lte

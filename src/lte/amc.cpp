#include "lte/amc.hpp"

#include <algorithm>
#include <array>

#include "geo/contract.hpp"

namespace skyran::lte {

namespace {

// Efficiencies from 36.213 Table 7.2.3-1; thresholds are the widely used
// ~10% BLER switching points for AWGN link curves.
constexpr std::array<CqiEntry, 15> kCqiTable{{
    {1, -6.7, 0.1523},
    {2, -4.7, 0.2344},
    {3, -2.3, 0.3770},
    {4, 0.2, 0.6016},
    {5, 2.4, 0.8770},
    {6, 4.3, 1.1758},
    {7, 5.9, 1.4766},
    {8, 8.1, 1.9141},
    {9, 10.3, 2.4063},
    {10, 11.7, 2.7305},
    {11, 14.1, 3.3223},
    {12, 16.3, 3.9023},
    {13, 18.7, 4.5234},
    {14, 21.0, 5.1152},
    {15, 22.7, 5.5547},
}};

}  // namespace

const CqiEntry* cqi_table() { return kCqiTable.data(); }
int cqi_table_size() { return static_cast<int>(kCqiTable.size()); }

int snr_to_cqi(double snr_db) {
  int cqi = 0;
  for (const CqiEntry& e : kCqiTable) {
    if (snr_db >= e.snr_threshold_db)
      cqi = e.cqi;
    else
      break;
  }
  return cqi;
}

double cqi_efficiency(int cqi) {
  expects(cqi >= 0 && cqi <= 15, "cqi_efficiency: CQI must be in [0, 15]");
  if (cqi == 0) return 0.0;
  return kCqiTable[static_cast<std::size_t>(cqi - 1)].efficiency_bps_per_hz;
}

double throughput_bps(double snr_db, const BandwidthConfig& carrier) {
  const double eff = cqi_efficiency(snr_to_cqi(snr_db));
  return eff * carrier.occupied_bandwidth_hz() * (1.0 - kL1OverheadFraction);
}

}  // namespace skyran::lte

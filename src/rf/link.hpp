// Link budget: converts a path loss into SNR/RSS at the receiver. Defaults
// follow the SkyRAN payload (Sec 4.1): USRP B210 front end and a 5 dBi
// antenna at the UAV; a handset UE at 23 dBm.
#pragma once

#include "rf/units.hpp"

namespace skyran::rf {

struct LinkBudget {
  static constexpr double kTxPowerDbm = 23.0;  ///< UE uplink max power (3GPP class 3)
  static constexpr double kTxAntennaGainDbi = 0.0;
  static constexpr double kRxAntennaGainDbi = 5.0;  ///< UAV LTE antenna
  static constexpr double kBandwidthHz = 10e6;
  /// Co-channel interference plus implementation margin added to the noise
  /// floor. Band-7 deployments near macro coverage see a raised effective
  /// floor; this also folds in EVM/quantization losses of the SDR front end.
  static constexpr double kInterferenceMarginDb = 13.0;

  double noise_figure_db = 7.0;

  /// Received signal strength for a given path loss, dBm, referred to the
  /// antenna port (the payload's LNA chain boosts signal and noise alike, so
  /// it cancels in SNR and is not modelled).
  double rss_dbm(double path_loss_db) const {
    return kTxPowerDbm + kTxAntennaGainDbi + kRxAntennaGainDbi - path_loss_db;
  }

  /// Effective noise-plus-interference floor, dBm.
  double effective_floor_dbm() const {
    return noise_floor_dbm(kBandwidthHz, noise_figure_db) + kInterferenceMarginDb;
  }

  /// Signal-to-noise(-plus-interference) ratio for a given path loss, dB.
  double snr_db(double path_loss_db) const {
    return rss_dbm(path_loss_db) - effective_floor_dbm();
  }

  /// Path loss that would produce the given SNR, dB (inverse of snr_db).
  double path_loss_for_snr_db(double snr_db_value) const {
    return kTxPowerDbm + kTxAntennaGainDbi + kRxAntennaGainDbi - effective_floor_dbm() -
           snr_db_value;
  }
};

}  // namespace skyran::rf

// Simulated uplink channel for SRS symbols: propagation delay, multipath
// echoes and receiver noise applied in the frequency domain. This stands in
// for the USRP front end: the delay statistics it produces (sigma ~ 5 ns in
// LOS, up to ~25 ns with NLOS multipath) match the paper's measurements
// (Sec 4.3).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "lte/srs.hpp"

namespace skyran::lte {

/// One multipath echo relative to the direct path.
struct MultipathTap {
  double excess_delay_s = 0.0;  ///< delay beyond the direct path
  double power_db = 0.0;        ///< power relative to the direct path
};

struct SrsChannelParams {
  double delay_s = 0.0;    ///< direct-path propagation + processing delay
  double snr_db = 20.0;    ///< per-occupied-subcarrier SNR at the receiver
  std::vector<MultipathTap> taps;  ///< NLOS echoes (empty for pure LOS)
};

/// Pass `tx` through the channel. Occupied subcarriers get the multi-tap
/// channel response; every bin receives white Gaussian receiver noise.
/// The composition of draw_srs_noise and add_srs_signal below.
SrsSymbol apply_srs_channel(const SrsSymbol& tx, const SrsChannelParams& params,
                            std::mt19937_64& rng);

/// The RNG half of apply_srs_channel: overwrite every bin of `rx` with white
/// Gaussian receiver noise for unit-magnitude REs at `snr_db`. Draws two
/// values per bin from `rng`, the imaginary part first.
void draw_srs_noise(double snr_db, std::mt19937_64& rng, std::span<Cplx> rx);

/// The deterministic half of apply_srs_channel: add `tx` passed through the
/// channel to `rx` in place. Each occupied RE (`res`, as occupied_subcarriers
/// of tx.config returns them) gains tx times the multi-tap response; the
/// other bins of `tx` are zero, as make_srs_symbol builds them, so those of
/// `rx` are left as they are. Touches only `rx`, so calls on distinct
/// buffers may run concurrently.
void add_srs_signal(const SrsSymbol& tx, const SrsChannelParams& params,
                    std::span<const int> res, std::span<Cplx> rx);

/// Standard NLOS echo profile: `n_taps` echoes with exponentially
/// distributed excess delays (mean `mean_excess_s`) and powers fading
/// `tap_decay_db` per tap below the direct path.
std::vector<MultipathTap> make_nlos_taps(int n_taps, double mean_excess_s,
                                         double first_tap_power_db, double tap_decay_db,
                                         std::mt19937_64& rng);

}  // namespace skyran::lte

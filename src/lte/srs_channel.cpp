#include "lte/srs_channel.hpp"

#include <cmath>
#include <numbers>

#include "geo/contract.hpp"
#include "rf/units.hpp"

namespace skyran::lte {

SrsSymbol apply_srs_channel(const SrsSymbol& tx, const SrsChannelParams& params,
                            std::mt19937_64& rng) {
  SrsSymbol rx{tx.config, CplxVec(tx.freq.size())};
  draw_srs_noise(params.snr_db, rng, rx.freq);
  add_srs_signal(tx, params, occupied_subcarriers(tx.config), rx.freq);
  return rx;
}

void draw_srs_noise(double snr_db, std::mt19937_64& rng, std::span<Cplx> rx) {
  // Unit-magnitude REs at `snr_db` imply per-complex-dimension sigma of
  // sqrt(1 / (2 * snr_lin)).
  const double sigma = std::sqrt(0.5 / rf::db_to_linear(snr_db));
  std::normal_distribution<double> gauss(0.0, sigma);
  for (Cplx& v : rx) {
    // Named draws fix the order: the arguments of Cplx(gauss(rng), gauss(rng))
    // are unsequenced, and the stream has always drawn the imaginary part first.
    const double im = gauss(rng);
    const double re = gauss(rng);
    v = Cplx(re, im);
  }
}

void add_srs_signal(const SrsSymbol& tx, const SrsChannelParams& params,
                    std::span<const int> res, std::span<Cplx> rx) {
  expects(params.delay_s >= 0.0, "add_srs_signal: delay must be non-negative");
  expects(rx.size() == tx.freq.size(), "add_srs_signal: rx must match the FFT size");
  // Channel response per occupied subcarrier: direct ray plus echoes. Each
  // subcarrier writes its own FFT bin. Adding tx·h to the noise already in
  // the bin equals adding the noise to tx·h bit for bit (IEEE addition
  // commutes).
  std::vector<double> amps;
  amps.reserve(params.taps.size());
  for (const MultipathTap& tap : params.taps)
    amps.push_back(std::sqrt(rf::db_to_linear(tap.power_db)));
  for (const int sc : res) {
    const double f = sc * kSubcarrierSpacingHz;
    Cplx h = std::polar(1.0, -2.0 * std::numbers::pi * f * params.delay_s);
    for (std::size_t t = 0; t < amps.size(); ++t) {
      h += std::polar(amps[t], -2.0 * std::numbers::pi * f *
                                   (params.delay_s + params.taps[t].excess_delay_s));
    }
    const std::size_t bin = fft_bin(sc, tx.config.carrier.fft_size);
    rx[bin] += tx.freq[bin] * h;
  }
}

std::vector<MultipathTap> make_nlos_taps(int n_taps, double mean_excess_s,
                                         double first_tap_power_db, double tap_decay_db,
                                         std::mt19937_64& rng) {
  expects(n_taps >= 0, "make_nlos_taps: tap count must be non-negative");
  expects(mean_excess_s > 0.0, "make_nlos_taps: mean excess delay must be positive");
  std::exponential_distribution<double> excess(1.0 / mean_excess_s);
  std::vector<MultipathTap> taps;
  taps.reserve(static_cast<std::size_t>(n_taps));
  for (int i = 0; i < n_taps; ++i)
    taps.push_back({excess(rng), first_tap_power_db - i * tap_decay_db});
  return taps;
}

}  // namespace skyran::lte

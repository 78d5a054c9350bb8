#include "lte/srs_channel.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geo/contract.hpp"
#include "rf/units.hpp"

namespace skyran::lte {

SrsSymbol apply_srs_channel(const SrsSymbol& tx, const SrsChannelParams& params,
                            std::mt19937_64& rng) {
  SrsSymbol rx{tx.config, CplxVec(tx.freq.size())};
  const std::vector<int> res = occupied_subcarriers(tx.config);
  draw_srs_noise(params.snr_db, rng, res, rx.freq);
  add_srs_signal(tx, params, res, rx.freq);
  return rx;
}

void draw_srs_noise(double snr_db, std::mt19937_64& rng, std::span<const int> res,
                    std::span<Cplx> rx) {
  // Unit-magnitude REs at `snr_db` imply per-complex-dimension sigma of
  // sqrt(1 / (2 * snr_lin)).
  const double sigma = std::sqrt(0.5 / rf::db_to_linear(snr_db));
  // Ascending subcarriers reach their bins in ascending order when the
  // positive ones (bin sc) go before the negative ones (bin n + sc).
  const auto first_nonneg = std::partition_point(res.begin(), res.end(),
                                                 [](int sc) { return sc < 0; });
  std::size_t bin = 0;  // next bin whose pair the stream owes
  const auto draw = [&](std::span<const int> part) {
    for (const int sc : part) {
      const std::size_t target = fft_bin(sc, rx.size());
      expects(target >= bin, "draw_srs_noise: occupied subcarriers must ascend");
      for (; bin < target; ++bin) polar_pair(rng);  // unread bin: advance only
      const PolarPair p = polar_pair(rng);
      const double m = std::sqrt(-2.0 * std::log(p.r2) / p.r2);
      // std::normal_distribution returns y·m first (the imaginary part),
      // then the saved x·m, each as value·sigma + mean.
      rx[bin++] = Cplx(p.x * m * sigma + 0.0, p.y * m * sigma + 0.0);
    }
  };
  draw({first_nonneg, res.end()});
  draw({res.begin(), first_nonneg});
  for (; bin < rx.size(); ++bin) polar_pair(rng);
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

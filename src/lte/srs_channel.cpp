#include "lte/srs_channel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <random>

#include "geo/contract.hpp"
#include "rf/units.hpp"

namespace skyran::lte {

SrsSymbol apply_srs_channel(const SrsSymbol& tx, const SrsChannelParams& params,
                            geo::Mt19937_64& rng) {
  SrsSymbol rx{tx.config, CplxVec(tx.freq.size())};
  const std::vector<int> res = occupied_subcarriers(tx.config);
  draw_srs_noise(params.snr_db, rng, res, rx.freq);
  add_srs_signal(tx, params, res, rx.freq);
  return rx;
}

void draw_srs_noise(double snr_db, geo::Mt19937_64& rng, std::span<const int> res,
                    std::span<Cplx> rx) {
  // Unit-magnitude REs at `snr_db` imply per-complex-dimension sigma of
  // sqrt(1 / (2 * snr_lin)).
  const double sigma = std::sqrt(0.5 / rf::db_to_linear(snr_db));
  const auto write = [&](std::size_t bin, const PolarPair& p) {
    const double m = std::sqrt(-2.0 * std::log(p.r2) / p.r2);
    // std::normal_distribution returns y·m first (the imaginary part),
    // then the saved x·m, each as value·sigma + mean.
    rx[bin] = Cplx(p.x * m * sigma + 0.0, p.y * m * sigma + 0.0);
  };
  // Ascending subcarriers reach their bins in ascending order when the
  // positive ones (bin sc) go before the negative ones (bin n + sc).
  const auto first_nonneg = std::partition_point(res.begin(), res.end(),
                                                 [](int sc) { return sc < 0; });
  const std::size_t n_nonneg = static_cast<std::size_t>(res.end() - first_nonneg);
  const auto occupied_bin = [&](std::size_t t) {
    return fft_bin(t < n_nonneg ? first_nonneg[t] : res[t - n_nonneg], rx.size());
  };
  std::size_t t = 0;        // next occupied bin, in the order above
  std::size_t t_floor = 0;  // lowest bin it may name
  const auto next_occupied = [&] {
    const std::size_t target = occupied_bin(t);
    expects(target >= t_floor, "draw_srs_noise: occupied subcarriers must ascend");
    return target;
  };

  std::size_t bin = 0;  // next bin whose pair the stream owes
  while (bin < rx.size()) {
    // Test every candidate pair left in the engine's block at once: the
    // indices of the accepted ones, in stream order, without a branch.
    const std::span<const std::uint64_t> words = rng.block();
    const std::size_t n_cand = words.size() / 2;
    std::array<std::uint16_t, geo::Mt19937_64::kBlockWords / 2> accepted{};
    std::size_t n_acc = 0;
    for (std::size_t i = 0; i < n_cand; ++i) {
      accepted[n_acc] = static_cast<std::uint16_t>(i);
      n_acc += PolarPair::from_words(words[2 * i], words[2 * i + 1]).accepted();
    }
    // Bins bin .. bin + take - 1 get the accepted pairs in order; only the
    // occupied ones among them are computed.
    const std::size_t take = std::min(n_acc, rx.size() - bin);
    for (; t < res.size(); ++t) {
      const std::size_t target = next_occupied();
      if (target >= bin + take) break;
      const std::size_t i = accepted[target - bin];
      write(target, PolarPair::from_words(words[2 * i], words[2 * i + 1]));
      t_floor = target + 1;
    }
    // Short of the last bin, every pair of the block was drawn: the rejected
    // candidates after the last accepted one open the next bin's draw, which
    // rejects them too. The last bin's draw ends at its accepted pair.
    bin += take;
    rng.advance(bin < rx.size() ? 2 * n_cand : 2 * (accepted[take - 1] + std::size_t{1}));
    if (bin < rx.size() && words.size() % 2 == 1) {
      // One word is left: the next candidate pair spans two blocks.
      const PolarPair p = polar_pair(rng);
      if (t < res.size() && next_occupied() == bin) {
        write(bin, p);
        t_floor = bin + 1;
        ++t;
      }
      ++bin;
    }
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
                                         geo::Mt19937_64& rng) {
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

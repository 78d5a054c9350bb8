// Simulated uplink channel for SRS symbols: propagation delay, multipath
// echoes and receiver noise applied in the frequency domain. This stands in
// for the USRP front end: the delay statistics it produces (sigma ~ 5 ns in
// LOS, up to ~25 ns with NLOS multipath) match the paper's measurements
// (Sec 4.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/mt19937.hpp"
#include "lte/srs.hpp"

namespace skyran::lte {

/// One multipath echo relative to the direct path.
struct MultipathTap {
  double excess_delay_s = 0.0;  ///< delay beyond the direct path
  double power_db = 0.0;        ///< power relative to the direct path
};

/// Most NLOS echoes one channel may carry (add_srs_signal keeps their
/// amplitudes in a fixed array).
inline constexpr std::size_t kMaxSrsTaps = 8;

struct SrsChannelParams {
  double delay_s = 0.0;    ///< direct-path propagation + processing delay
  double snr_db = 20.0;    ///< per-occupied-subcarrier SNR at the receiver
  std::vector<MultipathTap> taps;  ///< NLOS echoes (empty for pure LOS), at most kMaxSrsTaps
};

/// Pass `tx` through the channel. Occupied subcarriers get the multi-tap
/// channel response plus white Gaussian receiver noise; the other bins are
/// zero. The composition of draw_srs_noise and add_srs_signal below.
SrsSymbol apply_srs_channel(const SrsSymbol& tx, const SrsChannelParams& params,
                            geo::Mt19937_64& rng);

/// The RNG half of apply_srs_channel: white Gaussian receiver noise for
/// unit-magnitude REs at `snr_db` on the occupied bins of an `fft_size`-bin
/// symbol, stored compactly: noise[t] is the value of subcarrier res[t]
/// (`res` in ascending subcarrier order, as occupied_subcarriers returns
/// it; noise.size() == res.size()). place_occupied puts it in its bins.
///
/// The stream is that of `std::normal_distribution<double>(0, sigma)` in
/// libstdc++ drawing the imaginary then the real part of every bin in bin
/// order: each of the fft_size bins consumes one accepted polar pair
/// (polar_pair below), occupied or not, so `rng` advances exactly as a
/// draw over every bin would, and each occupied bin's value is bit-equal to
/// that draw's. Only occupied bins pay for the log and sqrt. The candidate
/// pairs are tested a whole engine block at a time, without a branch.
void draw_srs_noise(double snr_db, geo::Mt19937_64& rng, std::span<const int> res,
                    std::size_t fft_size, std::span<Cplx> noise);

/// Write the compact values (`values[t]` for subcarrier res[t]) into their
/// FFT bins of `rx`; the other bins are left as they are.
void place_occupied(std::span<const Cplx> values, std::span<const int> res, std::span<Cplx> rx);

/// libstdc++'s `std::generate_canonical<double, 53>` over a full-range
/// 64-bit generator that draws the word u, bit for bit: u rounded once to
/// double (hi and lo 32-bit halves are exact, their sum is the one rounding),
/// times 2^-64, with values that round to 1 clamped to nextafter(1, 0).
/// Unlike the library's uint64 -> double conversion it has no branch.
inline double canonical_u01(std::uint64_t u) {
  const double d = (static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
                    static_cast<double>(static_cast<std::uint32_t>(u))) *
                   0x1p-64;
  return std::min(d, 0x1.fffffffffffffp-1);
}

/// One accepted pair of the Marsaglia polar method, as libstdc++'s
/// `std::normal_distribution<double>` draws it: x and y uniform on [-1, 1),
/// redrawn while r2 = x² + y² is above 1 or exactly 0. The two normals of
/// the pair are y·m and x·m with m = sqrt(-2 log(r2) / r2), in that order.
struct PolarPair {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;

  /// The candidate drawn from the words `u` then `v`.
  static PolarPair from_words(std::uint64_t u, std::uint64_t v) {
    PolarPair p;
    p.x = 2.0 * canonical_u01(u) - 1.0;
    p.y = 2.0 * canonical_u01(v) - 1.0;
    p.r2 = p.x * p.x + p.y * p.y;
    return p;
  }

  /// Whether the polar method keeps the candidate; computed without a branch.
  bool accepted() const { return !(r2 > 1.0) & !(r2 == 0.0); }
};

template <class Urbg>
PolarPair polar_pair(Urbg& g) {
  static_assert(Urbg::min() == 0 && Urbg::max() == ~std::uint64_t{0},
                "polar_pair needs a generator of full 64-bit words");
  for (;;) {
    const std::uint64_t u = g();
    const PolarPair p = PolarPair::from_words(u, g());
    if (p.accepted()) return p;
  }
}

/// The deterministic half of apply_srs_channel: add `tx` passed through the
/// channel to `rx` in place. Each occupied RE (`res`, as occupied_subcarriers
/// of tx.config returns them) gains tx times the multi-tap response; the
/// other bins of `tx` are zero, as make_srs_symbol builds them, so those of
/// `rx` are left as they are. Touches only `rx`, so calls on distinct
/// buffers may run concurrently.
void add_srs_signal(const SrsSymbol& tx, const SrsChannelParams& params,
                    std::span<const int> res, std::span<Cplx> rx);

/// Standard NLOS echo profile: `n_taps` (at most kMaxSrsTaps) echoes with
/// exponentially distributed excess delays (mean `mean_excess_s`) and powers
/// fading `tap_decay_db` per tap below the direct path, written over `taps`
/// (its capacity is reused).
void make_nlos_taps(int n_taps, double mean_excess_s, double first_tap_power_db,
                    double tap_decay_db, geo::Mt19937_64& rng, std::vector<MultipathTap>& taps);

}  // namespace skyran::lte

// Micro benches for the DSP hot paths. Scalar-vs-SIMD throughput for the
// two TOLERANCE kernels with an AVX2 variant (IDW accumulate, FSPL path-loss
// batches): each row runs the same inputs under ScopedScalarKernels and at
// the active level and asserts the documented exactness/tolerance contract
// in-bench. The `tof_estimate_planned` row times the full SRS ToF estimate two
// ways, the composed reference (dense mul-conj + upsample + IFFT, then the
// peak pick) against TofEstimator's planned correlator at the active level,
// and asserts every estimate field is bit-identical, also to the planned
// estimate under ScopedScalarKernels (the EXACT radix2_stage). The `srs_noise` row times one symbol's
// receiver-noise draw (lte::draw_srs_noise on geo::Mt19937_64) against the
// standard library's std::normal_distribution over every bin on
// std::mt19937_64, the draw it replays, and asserts bit-equal occupied bins
// and engine text states; each column is the median over
// 21 blocks of symbols (whatever the repetitions) with its IQR over that
// median. The `srs_noise_walk` row splits that draw as collect_gps_tof
// runs it: the serial stream walk (lte::draw_srs_noise_words) against the
// whole draw, with the walk's share of it, and asserts that the walk
// finished by lte::place_srs_noise equals the whole draw bit for bit, engine
// states included. Each row prints one machine-readable JSON line. Not a
// google-benchmark binary: the JSON contract is the point
// (tools/bench_snapshot.py gates it in CI).
//
// Usage: micro_dsp [repetitions]   (default 5; best-of is reported)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "geo/mt19937.hpp"
#include "kernels/kernels.hpp"
#include "lte/fft.hpp"
#include "lte/ranging.hpp"
#include "lte/srs.hpp"
#include "lte/srs_channel.hpp"
#include "obs/env_session.hpp"
#include "rf/units.hpp"
#include "timing.hpp"

namespace skyran::bench {
namespace {

using Clock = std::chrono::steady_clock;

double best_of_ms(int reps, const auto& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

/// Run `fn` with scalar kernels forced and at the active level, time both,
/// check the exactness/tolerance contract via `check(scalar_result, simd_result)`
/// — which returns the max observed error, or a negative value when the
/// contract is broken — and emit the JSON line. `n` is elements per call.
void report(const char* kernel, std::size_t n, int reps, const auto& fn, const auto& check) {
  decltype(fn()) scalar_result, simd_result;
  double scalar_ms = 0.0, simd_ms = 0.0;
  {
    kernels::ScopedScalarKernels scalar;
    scalar_result = fn();
    scalar_ms = best_of_ms(reps, fn);
  }
  const kernels::SimdLevel level = kernels::active_level();
  simd_result = fn();
  simd_ms = best_of_ms(reps, fn);

  const double max_err = check(scalar_result, simd_result);
  std::printf(
      "{\"bench\":\"micro_dsp\",\"kernel\":\"%s\",\"n\":%zu,"
      "\"scalar_ms\":%.3f,\"simd_ms\":%.3f,\"speedup\":%.3f,"
      "\"simd\":\"%s\",\"equal\":%s,\"max_err\":%.3e}\n",
      kernel, n, scalar_ms, simd_ms, scalar_ms / simd_ms, kernels::level_name(level),
      max_err >= 0.0 ? "true" : "false", max_err);
  std::fflush(stdout);
}

std::vector<double> random_doubles(std::size_t n, double lo, double hi, std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

/// The standard library's receiver-noise draw: every bin, imaginary part
/// first, one normal_distribution per symbol.
void library_noise(double snr_db, std::mt19937_64& rng, std::span<lte::Cplx> rx) {
  const double sigma = std::sqrt(0.5 / rf::db_to_linear(snr_db));
  std::normal_distribution<double> gauss(0.0, sigma);
  for (lte::Cplx& v : rx) {
    const double im = gauss(rng);
    const double re = gauss(rng);
    v = lte::Cplx(re, im);
  }
}

double rel_err(double ref, double got) {
  const double denom = std::max(std::abs(ref), 1e-300);
  return std::abs(got - ref) / denom;
}

}  // namespace
}  // namespace skyran::bench

int main(int argc, char** argv) {
  using namespace skyran;
  using namespace skyran::bench;

  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;
  constexpr int kInnerIters = 200;  // per timed call, amortizes clock overhead

  for (const std::size_t n : {std::size_t{8}, std::size_t{1024}}) {
    // n=8 is the real call shape (k nearest neighbors per grid cell);
    // n=1024 shows the asymptotic kernel throughput.
    const auto dist = random_doubles(n, 0.5, 300.0, 4);
    const auto val = random_doubles(n, -40.0, 40.0, 5);
    const int iters = kInnerIters * static_cast<int>(1024 / n);
    const auto run = [&] {
      kernels::IdwAccum acc{};
      for (int it = 0; it < iters; ++it)
        acc = kernels::idw_weigh(dist.data(), val.data(), n, 2.0);
      return acc;
    };
    report("idw_weigh", n, reps, run,
           [](const kernels::IdwAccum& s, const kernels::IdwAccum& v) {
             const double err = std::max(rel_err(s.wsum, v.wsum), rel_err(s.vsum, v.vsum));
             return err <= 1e-12 ? err : -1.0;  // TOLERANCE contract
           });
  }

  {
    constexpr std::size_t n = 4096;
    const auto dist = random_doubles(n, 1.0, 2.0e4, 10);
    std::vector<double> out(n);
    const auto run = [&] {
      for (int it = 0; it < kInnerIters; ++it)
        kernels::fspl_db(dist.data(), out.data(), n, 2.6e9);
      return out;
    };
    report("pathloss_fspl", n, reps, run, [](const auto& s, const auto& v) {
      double err = 0.0;
      for (std::size_t i = 0; i < s.size(); ++i) err = std::max(err, std::abs(s[i] - v[i]));
      return err <= 1e-9 ? err : -1.0;  // TOLERANCE contract, dB absolute
    });
  }

  {
    // End to end: the full SRS ToF estimate, composed reference vs the
    // planned correlator. Both feed the same peak pick, so every field must
    // match bit for bit.
    lte::SrsConfig cfg;
    const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
    geo::Mt19937_64 rng(11);
    lte::SrsChannelParams ch;
    ch.delay_s = 9.7 / cfg.carrier.sample_rate_hz;
    ch.snr_db = 15.0;
    const lte::SrsSymbol rx = lte::apply_srs_channel(tx, ch, rng);
    const lte::TofEstimator est(cfg, 4);
    constexpr int kIters = 20;
    const auto composed = [&] {
      lte::TofEstimate last{};
      for (int it = 0; it < kIters; ++it) {
        lte::CplxVec up = lte::upsample_zero_pad(lte::multiply_conjugate(rx.freq, tx.freq), 4);
        lte::ifft_inplace(up);
        last = est.pick_peak(std::span<const lte::Cplx>(up.data(), est.window()));
      }
      return last;
    };
    const auto planned = [&] {
      lte::TofEstimate last{};
      for (int it = 0; it < kIters; ++it) last = est.estimate(rx);
      return last;
    };
    const lte::TofEstimate want = composed();
    const lte::TofEstimate got = planned();
    lte::TofEstimate got_scalar;
    {
      kernels::ScopedScalarKernels scalar;
      got_scalar = planned();
    }
    const double composed_ms = best_of_ms(reps, composed);
    const double planned_ms = best_of_ms(reps, planned);
    const auto same = [](const lte::TofEstimate& a, const lte::TofEstimate& b) {
      return a.delay_samples == b.delay_samples && a.delay_s == b.delay_s &&
             a.distance_m == b.distance_m && a.peak_to_side_db == b.peak_to_side_db &&
             a.quality_ok == b.quality_ok;
    };
    const bool equal = same(got, want) && same(got_scalar, want);
    std::printf(
        "{\"bench\":\"micro_dsp\",\"kernel\":\"tof_estimate_planned\",\"n\":%zu,"
        "\"composed_ms\":%.3f,\"planned_ms\":%.3f,\"speedup\":%.3f,\"equal\":%s}\n",
        cfg.carrier.fft_size, composed_ms, planned_ms, composed_ms / planned_ms,
        equal ? "true" : "false");
    std::fflush(stdout);
  }

  {
    // Receiver noise for one symbol: the library draw over every bin, on the
    // library's engine, against draw_srs_noise on the repo's, which replays
    // its stream and writes only the occupied bins. Blocks alternate sides;
    // each sample is one block's per-symbol time.
    const lte::SrsConfig cfg;
    const std::vector<int> res = lte::occupied_subcarriers(cfg);
    constexpr int kSymbols = 50;
    constexpr int kBlocks = 21;
    constexpr double kSnrDb = 12.0;
    lte::CplxVec lib_rx(cfg.carrier.fft_size), own_noise(res.size());
    std::mt19937_64 lib_rng(21);
    geo::Mt19937_64 own_rng(21);
    bool equal = true;
    std::vector<double> lib_ms, own_ms;
    for (int b = 0; b < kBlocks; ++b) {
      const auto t0 = Clock::now();
      for (int s = 0; s < kSymbols; ++s) library_noise(kSnrDb, lib_rng, lib_rx);
      const auto t1 = Clock::now();
      for (int s = 0; s < kSymbols; ++s)
        lte::draw_srs_noise(kSnrDb, own_rng, res, cfg.carrier.fft_size, own_noise);
      const auto t2 = Clock::now();
      lib_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count() / kSymbols);
      own_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count() / kSymbols);
      // The last symbol of each block, occupied bins only, and the streams.
      for (std::size_t t = 0; t < res.size(); ++t) {
        const std::size_t bin = lte::fft_bin(res[t], cfg.carrier.fft_size);
        equal = equal && std::memcmp(&lib_rx[bin], &own_noise[t], sizeof(lte::Cplx)) == 0;
      }
      std::ostringstream lib_state, own_state;
      lib_state << lib_rng;
      own_state << own_rng;
      equal = equal && lib_state.str() == own_state.str();
    }
    const Timing lib = median_iqr(lib_ms);
    const Timing own = median_iqr(own_ms);
    std::printf(
        "{\"bench\":\"micro_dsp\",\"kernel\":\"srs_noise\",\"n\":%zu,"
        "\"library_ms\":%.5f,\"draw_ms\":%.5f,\"library_iqr_frac\":%.3f,"
        "\"draw_iqr_frac\":%.3f,\"speedup\":%.3f,\"equal\":%s}\n",
        cfg.carrier.fft_size, lib.median_ms, own.median_ms, lib.iqr_frac, own.iqr_frac,
        lib.median_ms / own.median_ms, equal ? "true" : "false");
    std::fflush(stdout);
  }

  {
    // The same draw split in two: the stream walk alone (the serial share
    // in collect_gps_tof), against the whole draw. Blocks alternate sides.
    const lte::SrsConfig cfg;
    const std::vector<int> res = lte::occupied_subcarriers(cfg);
    const std::size_t n = cfg.carrier.fft_size;
    constexpr int kSymbols = 50;
    constexpr int kBlocks = 21;
    constexpr double kSnrDb = 12.0;
    lte::CplxVec noise(res.size()), whole_rx(n), split_rx(n);
    std::vector<lte::PolarWords> words(res.size());
    geo::Mt19937_64 whole_rng(21), split_rng(21);
    bool equal = true;
    std::vector<double> draw_ms, walk_ms;
    for (int b = 0; b < kBlocks; ++b) {
      const auto t0 = Clock::now();
      for (int s = 0; s < kSymbols; ++s) lte::draw_srs_noise(kSnrDb, whole_rng, res, n, noise);
      const auto t1 = Clock::now();
      for (int s = 0; s < kSymbols; ++s) lte::draw_srs_noise_words(split_rng, res, n, words);
      const auto t2 = Clock::now();
      draw_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count() / kSymbols);
      walk_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count() / kSymbols);
      // The last symbol of each block, finished, and the streams.
      lte::place_occupied(noise, res, whole_rx);
      lte::place_srs_noise(kSnrDb, words, res, split_rx);
      equal = equal && std::memcmp(whole_rx.data(), split_rx.data(), n * sizeof(lte::Cplx)) == 0;
      std::ostringstream whole_state, split_state;
      whole_state << whole_rng;
      split_state << split_rng;
      equal = equal && whole_state.str() == split_state.str();
    }
    const Timing draw = median_iqr(draw_ms);
    const Timing walk = median_iqr(walk_ms);
    std::printf(
        "{\"bench\":\"micro_dsp\",\"kernel\":\"srs_noise_walk\",\"n\":%zu,"
        "\"draw_ms\":%.5f,\"walk_ms\":%.5f,\"draw_iqr_frac\":%.3f,"
        "\"walk_iqr_frac\":%.3f,\"walk_share\":%.3f,\"equal\":%s}\n",
        n, draw.median_ms, walk.median_ms, draw.iqr_frac, walk.iqr_frac,
        walk.median_ms / draw.median_ms, equal ? "true" : "false");
    std::fflush(stdout);
  }

  return 0;
}

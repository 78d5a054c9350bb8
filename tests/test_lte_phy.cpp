// Tests for the LTE PHY substrate: FFT engine, Zadoff-Chu sequences, SRS
// symbol construction, the receiver-noise draw, the zero-pad upsampler and
// the ToF estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "lte/fft.hpp"
#include "lte/ranging.hpp"
#include "lte/sampling.hpp"
#include "lte/srs.hpp"
#include "lte/srs_channel.hpp"
#include "lte/zadoff_chu.hpp"
#include "obs/obs.hpp"
#include "rf/units.hpp"

namespace skyran::lte {
namespace {

// Forward DFT through the conjugation identity fft(x) = N * conj(ifft(conj(x))).
// The library ships only the inverse transform; the conjugations and the
// power-of-two scale add no rounding.
void fft_via_ifft(CplxVec& data) {
  for (Cplx& v : data) v = std::conj(v);
  ifft_inplace(data);
  const double n = static_cast<double>(data.size());
  for (Cplx& v : data) v = std::conj(v) * n;
}

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(1536));
}

TEST(FftTest, DeltaTransformsToConstant) {
  CplxVec x(8, Cplx{});
  x[0] = 1.0;
  CplxVec y = x;
  ifft_inplace(y);
  for (const Cplx& v : y) {
    EXPECT_NEAR(v.real(), 1.0 / 8.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CplxVec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::polar(1.0, -2.0 * std::numbers::pi * 5.0 * i / n);
  CplxVec y = x;
  ifft_inplace(y);
  EXPECT_NEAR(std::abs(y[5]), 1.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != 5) {
      EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9) << "bin " << k;
    }
  }
}

TEST(FftTest, ForwardInverseRoundTrip) {
  geo::Mt19937_64 rng(1);
  std::normal_distribution<double> g(0.0, 1.0);
  for (const std::size_t n : {std::size_t{16}, std::size_t{1024}}) {
    CplxVec x(n);
    for (Cplx& v : x) v = Cplx(g(rng), g(rng));
    CplxVec y = x;
    fft_via_ifft(y);
    ifft_inplace(y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
      EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
    }
  }
}

TEST(FftTest, ParsevalHolds) {
  geo::Mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  CplxVec x(256);
  for (Cplx& v : x) v = Cplx(g(rng), g(rng));
  double time_energy = 0.0;
  for (const Cplx& v : x) time_energy += std::norm(v);
  CplxVec y = x;
  fft_via_ifft(y);
  double freq_energy = 0.0;
  for (const Cplx& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / x.size(), time_energy, 1e-6);
}

TEST(FftTest, BadSizesThrow) {
  CplxVec empty;
  EXPECT_THROW(ifft_inplace(empty), ContractViolation);
  CplxVec twelve(12);
  EXPECT_THROW(ifft_inplace(twelve), ContractViolation);
}

TEST(FftTest, MultiplyConjugateSizeMismatch) {
  CplxVec a(4), b(5);
  EXPECT_THROW(multiply_conjugate(a, b), ContractViolation);
}

TEST(ZadoffChuTest, PrimeHelper) {
  EXPECT_EQ(largest_prime_not_above(288), 283u);
  EXPECT_EQ(largest_prime_not_above(13), 13u);
  EXPECT_EQ(largest_prime_not_above(2), 2u);
  EXPECT_THROW(largest_prime_not_above(1), ContractViolation);
}

TEST(ZadoffChuTest, ConstantAmplitude) {
  const CplxVec zc = zadoff_chu(5, 139);
  for (const Cplx& v : zc) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(ZadoffChuTest, ZeroAutocorrelation) {
  // CAZAC property: cyclic autocorrelation is zero at all nonzero lags.
  const std::uint32_t n = 139;
  const CplxVec zc = zadoff_chu(7, n);
  for (const std::uint32_t lag : {1u, 5u, 60u}) {
    Cplx acc{};
    for (std::uint32_t i = 0; i < n; ++i) acc += zc[i] * std::conj(zc[(i + lag) % n]);
    EXPECT_NEAR(std::abs(acc), 0.0, 1e-9) << "lag " << lag;
  }
}

TEST(ZadoffChuTest, DifferentRootsLowCrossCorrelation) {
  const std::uint32_t n = 139;
  const CplxVec a = zadoff_chu(3, n);
  const CplxVec b = zadoff_chu(4, n);
  Cplx acc{};
  for (std::uint32_t i = 0; i < n; ++i) acc += a[i] * std::conj(b[i]);
  // Prime-length ZC cross-correlation is 1/sqrt(N) of the peak.
  EXPECT_NEAR(std::abs(acc), std::sqrt(static_cast<double>(n)), 1.0);
}

TEST(ZadoffChuTest, RejectsBadParameters) {
  EXPECT_THROW(zadoff_chu(0, 139), ContractViolation);
  EXPECT_THROW(zadoff_chu(139, 139), ContractViolation);
  EXPECT_THROW(zadoff_chu(5, 140), ContractViolation);  // not prime
}

TEST(ZadoffChuTest, BaseSequenceCyclicExtension) {
  const CplxVec seq = base_sequence(2, 144);
  ASSERT_EQ(seq.size(), 144u);
  // Extension repeats the first elements (Nzc = 139).
  EXPECT_EQ(seq[139], seq[0]);
  EXPECT_EQ(seq[143], seq[4]);
}

TEST(SamplingTest, StandardBandwidthTable) {
  const BandwidthConfig c10 = bandwidth_config(10.0);
  EXPECT_EQ(c10.n_prb, 50);
  EXPECT_EQ(c10.fft_size, 1024u);
  EXPECT_DOUBLE_EQ(c10.sample_rate_hz, 15.36e6);
  EXPECT_NEAR(c10.meters_per_sample(), 19.52, 0.01);
  EXPECT_EQ(bandwidth_config(20.0).fft_size, 2048u);
  EXPECT_EQ(bandwidth_config(1.4).n_prb, 6);
  EXPECT_THROW(bandwidth_config(7.0), ContractViolation);
}

TEST(SrsTest, OccupiedSubcarriersCombAndDc) {
  SrsConfig cfg;
  cfg.sounding_prb = 4;
  cfg.comb = 2;
  const std::vector<int> res = occupied_subcarriers(cfg);
  EXPECT_EQ(res.size(), 24u);
  for (int sc : res) {
    EXPECT_NE(sc, 0);  // DC never transmitted
    EXPECT_EQ(((sc < 0 ? -sc : sc) + 24) % 1, 0);
  }
  // Comb spacing: consecutive entries differ by the comb.
  EXPECT_EQ(res[1] - res[0], 2);
}

TEST(SrsTest, SymbolEnergyOnOccupiedBinsOnly) {
  SrsConfig cfg;
  const SrsSymbol sym = make_srs_symbol(cfg);
  ASSERT_EQ(sym.freq.size(), cfg.carrier.fft_size);
  std::size_t nonzero = 0;
  for (const Cplx& v : sym.freq)
    if (std::abs(v) > 1e-12) {
      ++nonzero;
      EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
    }
  EXPECT_EQ(nonzero, static_cast<std::size_t>(cfg.occupied_res()));
}

TEST(SrsTest, FftBinMapsSignedIndices) {
  EXPECT_EQ(fft_bin(1, 1024), 1u);
  EXPECT_EQ(fft_bin(-1, 1024), 1023u);
  EXPECT_EQ(fft_bin(-288, 1024), 736u);
  EXPECT_THROW(fft_bin(0, 1024), ContractViolation);
  EXPECT_THROW(fft_bin(512, 1024), ContractViolation);
}

TEST(SrsTest, UpsampleZeroPadPreservesHalves) {
  CplxVec freq(8);
  for (std::size_t i = 0; i < 8; ++i) freq[i] = Cplx(static_cast<double>(i + 1), 0.0);
  const CplxVec up = upsample_zero_pad(freq, 2);
  ASSERT_EQ(up.size(), 16u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(up[i], freq[i]);            // positive half
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(up[12 + i], freq[4 + i]);   // negative half
  for (std::size_t i = 4; i < 12; ++i) EXPECT_EQ(up[i], Cplx{});            // zeros inserted
}

TEST(SrsTest, UpsampleFactorOneIsIdentity) {
  CplxVec freq(8, Cplx(1.0, -2.0));
  EXPECT_EQ(upsample_zero_pad(freq, 1), freq);
}

TEST(SrsChannelTest, NoiselessDelayOnly) {
  SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  SrsChannelParams ch;
  ch.delay_s = 0.0;
  ch.snr_db = 200.0;  // effectively noiseless
  geo::Mt19937_64 rng(5);
  const SrsSymbol rx = apply_srs_channel(tx, ch, rng);
  for (std::size_t i = 0; i < rx.freq.size(); ++i)
    EXPECT_NEAR(std::abs(rx.freq[i] - tx.freq[i]), 0.0, 1e-6);
}

TEST(SrsChannelTest, NlosTapsHaveConfiguredShape) {
  geo::Mt19937_64 rng(6);
  std::vector<MultipathTap> taps;
  make_nlos_taps(4, 50e-9, -3.0, 2.0, rng, taps);
  ASSERT_EQ(taps.size(), 4u);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_GE(taps[i].excess_delay_s, 0.0);
    EXPECT_DOUBLE_EQ(taps[i].power_db, -3.0 - 2.0 * static_cast<double>(i));
  }
  make_nlos_taps(0, 50e-9, -3.0, 2.0, rng, taps);  // overwrites
  EXPECT_TRUE(taps.empty());
  EXPECT_THROW(make_nlos_taps(static_cast<int>(kMaxSrsTaps) + 1, 50e-9, -3.0, 2.0, rng, taps),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Receiver noise. draw_srs_noise replays libstdc++'s std::normal_distribution
// over std::mt19937_64 with its own polar draw on geo::Mt19937_64, whose
// stream is the same; these tests hold it to that stream bit for bit.
// ---------------------------------------------------------------------------

/// The receiver-noise draw as it read when it used the standard library:
/// every bin, imaginary part first, one normal_distribution per symbol.
void library_noise(double snr_db, std::mt19937_64& rng, std::span<Cplx> rx) {
  const double sigma = std::sqrt(0.5 / rf::db_to_linear(snr_db));
  std::normal_distribution<double> gauss(0.0, sigma);
  for (Cplx& v : rx) {
    const double im = gauss(rng);
    const double re = gauss(rng);
    v = Cplx(re, im);
  }
}

bool same_bits(const Cplx& a, const Cplx& b) { return std::memcmp(&a, &b, sizeof(Cplx)) == 0; }

/// An engine's text state: equal texts mean equal stream positions.
template <class Engine>
std::string text_state(const Engine& g) {
  std::ostringstream os;
  os << g;
  return os.str();
}

TEST(SrsNoiseTest, OccupiedBinsMatchTheLibraryDrawBitForBit) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the reference stream is libstdc++'s normal_distribution";
#endif
  std::vector<SrsConfig> configs(4);
  configs[1].carrier = bandwidth_config(5.0);
  configs[1].sounding_prb = 25;
  configs[2].carrier = bandwidth_config(20.0);
  configs[2].comb_offset = 1;
  // 128 bins: about one symbol per engine block, so a symbol's last draw
  // often ends just short of a block's trailing rejected candidates.
  configs[3].carrier = bandwidth_config(1.4);
  configs[3].sounding_prb = 6;
  constexpr double kSnrsDb[] = {-12.0, 0.0, 7.5, 23.0, 300.0};
  constexpr double kMeanExcessS = 50e-9;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const SrsConfig& cfg = configs[seed % configs.size()];
    const std::vector<int> res = occupied_subcarriers(cfg);
    std::mt19937_64 want_rng(seed);
    geo::Mt19937_64 got_rng(seed);
    // 0-3 leading words move where the candidate pairs meet the engine's
    // 312-word block boundaries, so some pairs straddle two blocks.
    const std::uint64_t offset = (seed / configs.size()) % 4;
    for (std::uint64_t w = 0; w < offset; ++w) ASSERT_EQ(got_rng(), want_rng());
    for (int symbol = 0; symbol < 4; ++symbol) {
      const double snr_db = kSnrsDb[(seed + symbol) % std::size(kSnrsDb)];
      CplxVec want(cfg.carrier.fft_size);
      CplxVec got(res.size());
      library_noise(snr_db, want_rng, want);
      draw_srs_noise(snr_db, got_rng, res, want.size(), got);
      for (std::size_t t = 0; t < res.size(); ++t) {
        const std::size_t b = fft_bin(res[t], want.size());
        ASSERT_TRUE(same_bits(got[t], want[b])) << "seed " << seed << " symbol " << symbol
                                                << " bin " << b;
      }
      ASSERT_EQ(text_state(got_rng), text_state(want_rng))
          << "seed " << seed << " symbol " << symbol;
      if (symbol % 2 == 1) {  // NLOS taps between symbols, as collect_gps_tof draws them
        std::vector<MultipathTap> got_taps;
        make_nlos_taps(3, kMeanExcessS, -4.0, 4.0, got_rng, got_taps);
        std::exponential_distribution<double> excess(1.0 / kMeanExcessS);
        ASSERT_EQ(got_taps.size(), 3u);
        for (const MultipathTap& tap : got_taps)
          ASSERT_EQ(tap.excess_delay_s, excess(want_rng));
      }
    }
  }
}

/// A generator that hands out chosen 64-bit words, then fails the test.
struct PlantedWords {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }
  std::vector<result_type> words;
  std::size_t next = 0;
  result_type operator()() {
    if (next == words.size()) {
      ADD_FAILURE() << "planted words exhausted";
      return 0;
    }
    return words[next++];
  }
};

TEST(SrsNoiseTest, PlantedWordsMatchTheLibrary) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  const double below_one = std::nextafter(1.0, 0.0);
  // Values that need no library to state.
  EXPECT_EQ(canonical_u01(0), 0.0);
  EXPECT_EQ(canonical_u01(1), 0x1p-64);
  EXPECT_EQ(canonical_u01(kHalf), 0.5);
  EXPECT_EQ(canonical_u01(kHalf + 1024), 0.5);            // tie rounds to even
  EXPECT_EQ(canonical_u01(kHalf + 1025), 0.5 + 0x1p-53);  // above the tie rounds up
  EXPECT_EQ(canonical_u01(kTop - 2047), below_one);       // 2^64 - 2048 is exact
  EXPECT_EQ(canonical_u01(kTop - 1023), below_one);       // 2^64 - 1024 rounds to 1
  EXPECT_EQ(canonical_u01(kTop), below_one);              // clamped
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the reference stream is libstdc++'s generate_canonical";
#endif
  geo::Mt19937_64 fill(99);
  std::vector<std::uint64_t> words = {0,           1,           2,           k53 - 1,
                                      k53,         k53 + 1,     k53 + 3,     kHalf - 1,
                                      kHalf,       kHalf + 1,   kHalf + 1024, kHalf + 1025,
                                      kTop - 2048, kTop - 1024, kTop - 1023, kTop - 1,
                                      kTop};
  for (int i = 0; i < 64; ++i) words.push_back(fill());
  for (const std::uint64_t w : words) {
    PlantedWords lib{{w}};
    EXPECT_EQ(canonical_u01(w), (std::generate_canonical<double, 53>(lib))) << "word " << w;
  }

  // Pairs the polar method must reject (x = y = 0 gives r2 == 0; the top word
  // gives x = y = 1 - 2^-52 and r2 > 1) ahead of pairs it accepts.
  const std::vector<std::vector<std::uint64_t>> streams = {
      {kHalf, kHalf, kHalf >> 1, kHalf + (kHalf >> 1)},
      {kTop, kTop, kTop - 1023, kTop, kHalf, kHalf, 1, kHalf},  // accepts r2 == 1
      {kHalf, kHalf + 1, kHalf + 4096, kHalf},                  // accepts r2 == 2^-102
      {0, 0, k53 + 1, kHalf - 1},
      {kTop, kTop, kHalf >> 1, kHalf >> 2},
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    PlantedWords lib{streams[s]};
    PlantedWords own{streams[s]};
    std::normal_distribution<double> gauss(0.0, 1.0);
    const double first = gauss(lib);
    const double second = gauss(lib);
    const PolarWords w = polar_words(own);
    const PolarPair p = PolarPair::from_words(w.u, w.v);
    const double m = std::sqrt(-2.0 * std::log(p.r2) / p.r2);
    EXPECT_EQ(p.y * m * 1.0 + 0.0, first) << "stream " << s;
    EXPECT_EQ(p.x * m * 1.0 + 0.0, second) << "stream " << s;
    EXPECT_EQ(own.next, lib.next) << "stream " << s;
  }
}

TEST(SrsNoiseTest, KnownAnswerForSeedOne) {
  // Independent of the standard library: pins the first occupied bins of
  // the default 10 MHz symbol at 10 dB, and where the stream stands after.
  const SrsConfig cfg;
  const std::vector<int> res = occupied_subcarriers(cfg);
  geo::Mt19937_64 rng(1);
  CplxVec noise(res.size());
  draw_srs_noise(10.0, rng, res, cfg.carrier.fft_size, noise);
  CplxVec rx(cfg.carrier.fft_size);
  place_occupied(noise, res, rx);
  EXPECT_DOUBLE_EQ(rx[1].real(), -0.055666430725755618);
  EXPECT_DOUBLE_EQ(rx[1].imag(), 0.15357843457587594);
  EXPECT_DOUBLE_EQ(rx[3].real(), 0.22381976779952276);
  EXPECT_DOUBLE_EQ(rx[3].imag(), 0.43333794499357176);
  EXPECT_DOUBLE_EQ(rx[736].real(), 0.4463823341349773);
  EXPECT_DOUBLE_EQ(rx[736].imag(), -0.31242864250536007);
  EXPECT_EQ(rx[0], Cplx{});  // DC is never occupied
  EXPECT_EQ(rng(), 16553767748004550722u);
}

/// A geo::Mt19937_64 that counts the words it hands out.
struct CountingEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return geo::Mt19937_64::min(); }
  static constexpr result_type max() { return geo::Mt19937_64::max(); }
  geo::Mt19937_64 g;
  std::uint64_t drawn = 0;
  result_type operator()() {
    ++drawn;
    return g();
  }
};

TEST(SrsNoiseTest, SplitDrawMatchesTheWholeDraw) {
  // The pipeline's split, draw_srs_noise_words on the serial lane and
  // place_srs_noise on the correlating one, against draw_srs_noise then
  // place_occupied; the stored words against a bin-by-bin polar_words walk,
  // the definition of the stream.
  std::vector<SrsConfig> configs(3);
  configs[1].carrier = bandwidth_config(20.0);
  configs[1].comb_offset = 1;
  configs[2].carrier = bandwidth_config(1.4);
  configs[2].sounding_prb = 6;
  // -35 dB is an SNR sagged far below any decode floor.
  constexpr double kSnrsDb[] = {-35.0, -12.0, 0.0, 10.0, 23.0};
  std::size_t straddling_occupied = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const SrsConfig& cfg = configs[seed % configs.size()];
    const std::size_t n = cfg.carrier.fft_size;
    const std::vector<int> res = occupied_subcarriers(cfg);
    std::vector<bool> occupied(n, false);
    for (const int sc : res) occupied[fft_bin(sc, n)] = true;
    geo::Mt19937_64 whole(seed);
    geo::Mt19937_64 split(seed);
    CountingEngine walk{geo::Mt19937_64(seed)};
    // 0-3 leading words move the candidate pairs across the 312-word
    // block boundaries.
    for (std::uint64_t w = 0; w < seed % 4; ++w) {
      whole();
      split();
      walk();
    }
    for (int symbol = 0; symbol < 5; ++symbol) {
      const double snr_db = kSnrsDb[(seed + symbol) % std::size(kSnrsDb)];
      CplxVec noise(res.size());
      CplxVec want(n), got(n);
      draw_srs_noise(snr_db, whole, res, n, noise);
      place_occupied(noise, res, want);
      std::vector<PolarWords> words(res.size());
      draw_srs_noise_words(split, res, n, words);
      place_srs_noise(snr_db, words, res, got);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(Cplx)), 0)
          << "seed " << seed << " symbol " << symbol;

      std::vector<PolarWords> walked(n);
      for (std::size_t bin = 0; bin < n; ++bin) {
        walked[bin] = polar_words(walk);
        // The fresh engine's first word opens a block, so word k is the
        // (k mod 312)-th of its block: an accepted pair that ends on word
        // 0 of a block began on the last word of the one before.
        straddling_occupied +=
            occupied[bin] && walk.drawn % geo::Mt19937_64::kBlockWords == 1;
      }
      for (std::size_t t = 0; t < res.size(); ++t) {
        const PolarWords& w = walked[fft_bin(res[t], n)];
        ASSERT_EQ(words[t].u, w.u) << "seed " << seed << " symbol " << symbol << " t " << t;
        ASSERT_EQ(words[t].v, w.v) << "seed " << seed << " symbol " << symbol << " t " << t;
      }
    }
    // All three engines stand at the same word.
    for (int w = 0; w < 16; ++w) {
      const std::uint64_t next = walk();
      ASSERT_EQ(whole(), next) << "seed " << seed << " word " << w;
      ASSERT_EQ(split(), next) << "seed " << seed << " word " << w;
    }
  }
  EXPECT_GT(straddling_occupied, 0u) << "no occupied bin drew the pair that spans two blocks";
}

TEST(TofTest, NonFiniteOccupiedBinFlaggedBeforeCorrelating) {
  SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  const TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(12);
  SrsChannelParams ch;
  ch.delay_s = 6.0 / cfg.carrier.sample_rate_hz;
  ch.snr_db = 20.0;
  const SrsSymbol clean = apply_srs_channel(tx, ch, rng);
  const TofEstimate want = est.estimate(clean);
  ASSERT_TRUE(want.quality_ok);
  const std::vector<int> res = occupied_subcarriers(cfg);
  const std::size_t n = cfg.carrier.fft_size;

  std::vector<SrsSymbol> symbols(4, clean);
  symbols[1].freq[fft_bin(res[17], n)] = {std::numeric_limits<double>::quiet_NaN(), 0.5};
  symbols[2].freq[fft_bin(res.back(), n)] = {0.5, -std::numeric_limits<double>::infinity()};
  // DC is never occupied, so the correlator never reads it.
  ASSERT_EQ(clean.freq[0], Cplx{});
  symbols[3].freq[0] = {std::numeric_limits<double>::infinity(), 0.0};

  const obs::Counter& nonfinite =
      obs::MetricsRegistry::instance().counter("lte.tof.nonfinite_input");
  obs::set_enabled(true);
  const std::uint64_t before = nonfinite.value();
  const std::vector<TofEstimate> got = est.estimate_batch(symbols);
  const std::uint64_t flagged = nonfinite.value() - before;
  obs::set_enabled(false);
  ASSERT_EQ(got.size(), symbols.size());
  CplxVec scratch;
  for (const std::size_t s : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_FALSE(got[s].quality_ok) << "symbol " << s;
    EXPECT_EQ(got[s].delay_samples, 0.0) << "symbol " << s;
    EXPECT_FALSE(est.estimate(symbols[s]).quality_ok) << "symbol " << s;
    EXPECT_TRUE(est.correlate(symbols[s], scratch).empty()) << "symbol " << s;
  }
  EXPECT_EQ(est.correlate(symbols[3], scratch).size(), est.window());
  for (const std::size_t s : {std::size_t{0}, std::size_t{3}}) {
    EXPECT_TRUE(got[s].quality_ok) << "symbol " << s;
    EXPECT_EQ(got[s].delay_samples, want.delay_samples) << "symbol " << s;
    EXPECT_EQ(got[s].peak_to_side_db, want.peak_to_side_db) << "symbol " << s;
  }
#ifndef SKYRAN_OBS_DISABLED
  EXPECT_EQ(flagged, 2u);
#else
  (void)flagged;
#endif
}

TEST(TofTest, ExactSampleDelays) {
  SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  const TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(7);
  for (const double delay_samples : {0.0, 3.0, 10.0, 40.0}) {
    SrsChannelParams ch;
    ch.delay_s = delay_samples / cfg.carrier.sample_rate_hz;
    ch.snr_db = 30.0;
    const TofEstimate e = est.estimate(apply_srs_channel(tx, ch, rng));
    EXPECT_NEAR(e.delay_samples, delay_samples, 0.3) << delay_samples;
  }
}

TEST(TofTest, SubSampleResolution) {
  SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  const TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(8);
  // 7.3 samples: between grid points even after 4x upsampling.
  const double want = 7.3;
  SrsChannelParams ch;
  ch.delay_s = want / cfg.carrier.sample_rate_hz;
  ch.snr_db = 25.0;
  const TofEstimate e = est.estimate(apply_srs_channel(tx, ch, rng));
  EXPECT_NEAR(e.delay_samples, want, 0.15);
  EXPECT_NEAR(e.distance_m, want * cfg.carrier.meters_per_sample(), 3.0);
}

TEST(TofTest, PeakRemainsDetectableAtLowSnr) {
  // The correlator's processing gain (~25 dB for 288 REs) keeps the peak
  // usable well below the data-decode threshold; delay estimates stay sane
  // even at -10 dB subcarrier SNR.
  SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  const TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(9);
  for (const double snr : {20.0, 0.0, -10.0}) {
    SrsChannelParams ch;
    ch.delay_s = 5e-7;
    ch.snr_db = snr;
    const TofEstimate e = est.estimate(apply_srs_channel(tx, ch, rng));
    EXPECT_GT(e.peak_to_side_db, 10.0) << "snr " << snr;
    EXPECT_NEAR(e.delay_s, 5e-7, 5e-8) << "snr " << snr;
  }
}

TEST(TofTest, WindowContractEnforced) {
  SrsConfig cfg;
  // Window beyond the comb alias period is rejected.
  EXPECT_THROW(TofEstimator(cfg, 4, 1024.0), ContractViolation);
  EXPECT_NO_THROW(TofEstimator(cfg, 4, 256.0));
  EXPECT_THROW(TofEstimator(cfg, 0), ContractViolation);
}

TEST(TofTest, MismatchedSymbolSizeRejected) {
  const TofEstimator est(SrsConfig{}, 4);
  SrsSymbol wrong;
  wrong.config = SrsConfig{};
  wrong.freq.assign(512, Cplx{});
  EXPECT_THROW(est.estimate(wrong), ContractViolation);
}

TEST(TofTest, UpsampledSizeMustBeAPowerOfTwo) {
  EXPECT_THROW(TofEstimator(SrsConfig{}, 3), ContractViolation);
  SrsConfig cfg15;
  cfg15.carrier = bandwidth_config(15.0);  // N = 1536
  EXPECT_THROW(TofEstimator(cfg15, 4), ContractViolation);
}

/// The composed correlation the planned one replaces (paper eq. 1-2).
CplxVec dense_correlation(const SrsSymbol& rx, const SrsSymbol& ref, int k_factor) {
  CplxVec up = upsample_zero_pad(multiply_conjugate(rx.freq, ref.freq), k_factor);
  ifft_inplace(up);
  return up;
}

/// Differential oracle: the planned correlator's window equals the dense
/// ifft(upsample(rx . ref*)) value for value (== also equates the sign of an
/// exact zero, the one difference the plan allows), and so does every field
/// of the estimate drawn from it.
TEST(TofTest, PlannedCorrelatorMatchesDenseIfft) {
  geo::Mt19937_64 rng(2024);
  std::uniform_real_distribution<double> delay(0.0, 30.0);
  CplxVec scratch;  // reused across every plan below, as a batch chunk does
  int cases = 0;
  const auto check = [&](const SrsConfig& cfg, int k, double max_delay, bool nlos, double snr) {
    const SrsSymbol tx = make_srs_symbol(cfg);
    const TofEstimator est(cfg, k, max_delay);
    SrsChannelParams ch;
    ch.delay_s = delay(rng) / cfg.carrier.sample_rate_hz;
    ch.snr_db = snr;
    if (nlos) make_nlos_taps(4, 100e-9, -3.0, 2.0, rng, ch.taps);
    const SrsSymbol rx = apply_srs_channel(tx, ch, rng);
    const CplxVec dense = dense_correlation(rx, tx, k);
    const std::string where = "bw " + std::to_string(cfg.carrier.fft_size) + " K " +
                              std::to_string(k) + " comb " + std::to_string(cfg.comb) +
                              "/" + std::to_string(cfg.comb_offset) + " window " +
                              std::to_string(est.window()) + " nlos " +
                              std::to_string(nlos) + " snr " + std::to_string(snr);
    ASSERT_GE(est.window(), 1u) << where;
    const std::span<const Cplx> planned = est.correlate(rx, scratch);
    ASSERT_EQ(planned.size(), est.window()) << where;
    for (std::size_t i = 0; i < planned.size(); ++i) {
      ASSERT_EQ(planned[i].real(), dense[i].real()) << where << " bin " << i;
      ASSERT_EQ(planned[i].imag(), dense[i].imag()) << where << " bin " << i;
    }
    const TofEstimate got = est.estimate(rx);
    const TofEstimate want = est.pick_peak(std::span<const Cplx>(dense.data(), est.window()));
    EXPECT_EQ(got.delay_samples, want.delay_samples) << where;
    EXPECT_EQ(got.delay_s, want.delay_s) << where;
    EXPECT_EQ(got.distance_m, want.distance_m) << where;
    EXPECT_EQ(got.peak_to_side_db, want.peak_to_side_db) << where;
    EXPECT_EQ(got.quality_ok, want.quality_ok) << where;
    ++cases;
  };
  for (const double mhz : {5.0, 10.0, 20.0})
    for (const int k : {1, 2, 4, 8})
      for (const int comb : {2, 4})
        for (const int offset : {0, comb - 1})
          for (const bool nlos : {false, true})
            for (const double snr : {-10.0, 0.0, 30.0}) {
              SrsConfig cfg;
              cfg.carrier = bandwidth_config(mhz);
              cfg.sounding_prb = std::min(cfg.carrier.n_prb, 48);
              cfg.comb = comb;
              cfg.comb_offset = offset;
              check(cfg, k, 0.0, nlos, snr);  // default window: half the alias period
            }
  // Full alias period: with comb 1 the window passes the last stage's half,
  // so its `-` outputs are computed too; with comb 2 it ends exactly there.
  for (const int comb : {1, 2})
    for (const int k : {1, 4}) {
      SrsConfig cfg;
      cfg.comb = comb;
      check(cfg, k, static_cast<double>(cfg.carrier.fft_size) / comb, true, 0.0);
    }
  // The smallest window: one upsampled bin.
  check(SrsConfig{}, 4, 0.25, false, 30.0);
  EXPECT_EQ(cases, 3 * 4 * 2 * 2 * 2 * 3 + 4 + 1);
}

/// estimate_batch gives each chunk its own scratch buffer: batches of two
/// plans, interleaved on four workers, must match the dense oracle field for
/// field (the TSan job runs this suite).
TEST(TofTest, PlannedCorrelatorBatchesMatchOracleOnFourWorkers) {
  core::ScopedWorkers workers(4);
  SrsConfig small;
  SrsConfig large;
  large.carrier = bandwidth_config(20.0);
  large.comb = 4;
  large.comb_offset = 1;
  const TofEstimator est_small(small, 4);
  const TofEstimator est_large(large, 8);
  geo::Mt19937_64 rng(31);
  const auto batch = [&](const SrsConfig& cfg) {
    std::vector<SrsSymbol> rx;
    for (int i = 0; i < 16; ++i) {
      SrsChannelParams ch;
      ch.delay_s = (2.0 + 1.7 * i) / cfg.carrier.sample_rate_hz;
      ch.snr_db = 5.0;
      make_nlos_taps(3, 100e-9, -3.0, 2.0, rng, ch.taps);
      rx.push_back(apply_srs_channel(make_srs_symbol(cfg), ch, rng));
    }
    return rx;
  };
  const std::vector<SrsSymbol> rx_small = batch(small);
  const std::vector<SrsSymbol> rx_large = batch(large);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [est, rx, cfg] :
         {std::tuple{&est_small, &rx_small, &small}, std::tuple{&est_large, &rx_large, &large}}) {
      const std::vector<TofEstimate> got = est->estimate_batch(*rx);
      ASSERT_EQ(got.size(), rx->size());
      const SrsSymbol ref = make_srs_symbol(*cfg);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const CplxVec dense = dense_correlation((*rx)[i], ref, est->k_factor());
        const TofEstimate want =
            est->pick_peak(std::span<const Cplx>(dense.data(), est->window()));
        EXPECT_EQ(got[i].delay_samples, want.delay_samples) << round << "/" << i;
        EXPECT_EQ(got[i].peak_to_side_db, want.peak_to_side_db) << round << "/" << i;
        EXPECT_EQ(got[i].quality_ok, want.quality_ok) << round << "/" << i;
      }
    }
  }
}

TEST(TofTest, DegenerateWindowIsFlaggedNotCorrelated) {
  SrsConfig cfg;
  const TofEstimator est(cfg, 4, 0.1);  // 0.4 upsampled bins
  EXPECT_EQ(est.window(), 0u);
  geo::Mt19937_64 rng(3);
  const SrsSymbol rx = apply_srs_channel(make_srs_symbol(cfg), SrsChannelParams{}, rng);
  const TofEstimate e = est.estimate(rx);
  EXPECT_FALSE(e.quality_ok);
  EXPECT_EQ(e.delay_samples, 0.0);
  CplxVec scratch;
  EXPECT_THROW(est.correlate(rx, scratch), ContractViolation);
}

// ---------------------------------------------------------------------------
// Golden vectors. The constants below were computed once with this repo's
// reference implementation and hardcoded; they pin the exact numerics of the
// DSP chain so that later rewrites (SIMD, parallel, alternative FFTs) cannot
// silently change results. The ZC values also match the analytic formula
// exp(-i*pi*u*k*(k+1)/N) for odd N.
// ---------------------------------------------------------------------------

void expect_cplx_near(const Cplx& got, double re, double im, double tol) {
  EXPECT_NEAR(got.real(), re, tol);
  EXPECT_NEAR(got.imag(), im, tol);
}

TEST(GoldenVectorTest, ZadoffChuRoot25Length139) {
  const CplxVec zc = zadoff_chu(25, 139);
  ASSERT_EQ(zc.size(), 139u);
  constexpr double kTol = 1e-12;
  expect_cplx_near(zc[0], 1.0, 0.0, kTol);
  expect_cplx_near(zc[1], 0.426597131274425, -0.90444175466882937, kTol);
  expect_cplx_near(zc[2], -0.96925408626555865, 0.24606201709633482, kTol);
  expect_cplx_near(zc[69], -0.60051059140004859, -0.79961680173465832, kTol);
  // Symmetry of ZC sequences with odd N: zc[N-1-k] == zc[k].
  expect_cplx_near(zc[137], 0.426597131274425, -0.90444175466882937, kTol);
  expect_cplx_near(zc[138], 1.0, 0.0, kTol);
}

TEST(GoldenVectorTest, DefaultSrsSymbolOccupiedBins) {
  const SrsConfig cfg;
  const SrsSymbol sym = make_srs_symbol(cfg);
  ASSERT_EQ(sym.freq.size(), 1024u);
  ASSERT_EQ(cfg.occupied_res(), 288);
  const std::vector<int> res = occupied_subcarriers(cfg);
  ASSERT_EQ(res.front(), -288);
  ASSERT_EQ(res.back(), 287);
  constexpr double kTol = 1e-12;
  // bin = fft_bin(subcarrier, 1024) for the first, second, middle and last
  // occupied subcarriers.
  expect_cplx_near(sym.freq[736], 1.0, 0.0, kTol);                                    // sc -288
  expect_cplx_near(sym.freq[738], 0.99975354420738005, -0.022200244250505659, kTol);  // sc -286
  expect_cplx_near(sym.freq[1], 0.77234980784283547, 0.63519742940690105, kTol);      // sc 1
  expect_cplx_near(sym.freq[287], 0.97545448453831651, -0.22020115484276487, kTol);   // sc 287
}

TEST(GoldenVectorTest, Fft16FixedInput) {
  CplxVec x(16);
  for (int i = 0; i < 16; ++i)
    x[i] = Cplx(std::cos(0.7 * i) + 0.1 * i, std::sin(0.4 * i) - 0.05 * i);
  CplxVec y = x;
  fft_via_ifft(y);
  ASSERT_EQ(y.size(), 16u);
  constexpr double kTol = 1e-12;
  // All 16 bins of the radix-2 path for a fixed deterministic input.
  expect_cplx_near(y[0], 11.057262920633585, -6.0414646767974762, kTol);
  expect_cplx_near(y[1], 7.5383990289373699, 5.7932780823997296, kTol);
  expect_cplx_near(y[2], 5.8344723217076826, -2.6136522961303599, kTol);
  expect_cplx_near(y[3], 0.92245428286883402, 0.57316619858292506, kTol);
  expect_cplx_near(y[4], 0.34760358601145352, 0.61926537712625551, kTol);
  expect_cplx_near(y[5], 0.099327398672243689, 0.55441779844798833, kTol);
  expect_cplx_near(y[6], -0.046850474944800879, 0.48084775310473171, kTol);
  expect_cplx_near(y[7], -0.14725543222088255, 0.40983199555696004, kTol);
  expect_cplx_near(y[8], -0.22278854558758709, 0.34103465489449247, kTol);
  expect_cplx_near(y[9], -0.28221031933678953, 0.27218031547788524, kTol);
  expect_cplx_near(y[10], -0.3276044692909692, 0.2009730394858722, kTol);
  expect_cplx_near(y[11], -0.35262461216320218, 0.12699738482375419, kTol);
  expect_cplx_near(y[12], -0.32585842615782173, 0.061304047889064572, kTol);
  expect_cplx_near(y[13], -0.074826774804440305, 0.1053551235926149, kTol);
  expect_cplx_near(y[14], 4.2882901157104536, 3.2846989530067785, kTol);
  expect_cplx_near(y[15], -12.30779060003513, -4.1682337514612167, kTol);
}

TEST(GoldenVectorTest, TofChainFixedFractionalDelay) {
  // End-to-end chain (SRS synthesis -> channel -> correlator) with a fixed
  // fractional delay of 17.37 samples, near-infinite SNR and a fixed seed.
  const SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  SrsChannelParams ch;
  ch.delay_s = 17.37 / cfg.carrier.sample_rate_hz;
  ch.snr_db = 300.0;
  geo::Mt19937_64 rng(123);
  const TofEstimate e = TofEstimator(cfg, 4).estimate(apply_srs_channel(tx, ch, rng));
  EXPECT_NEAR(e.delay_samples, 17.369906871660298, 1e-9);
  EXPECT_NEAR(e.peak_to_side_db, 22.193243916033317, 1e-6);
}

/// Ranging accuracy sweep over bandwidth: wider carriers range better.
class TofBandwidth : public ::testing::TestWithParam<double> {};

TEST_P(TofBandwidth, MedianErrorWithinTwoSamples) {
  SrsConfig cfg;
  cfg.carrier = bandwidth_config(GetParam());
  cfg.sounding_prb = std::min(cfg.carrier.n_prb, 48);
  const SrsSymbol tx = make_srs_symbol(cfg);
  const TofEstimator est(cfg, 4);
  geo::Mt19937_64 rng(10);
  const double true_dist = 180.0;
  double worst = 0.0;
  for (int i = 0; i < 10; ++i) {
    SrsChannelParams ch;
    ch.delay_s = true_dist / rf::kSpeedOfLight;
    ch.snr_db = 15.0;
    const TofEstimate e = est.estimate(apply_srs_channel(tx, ch, rng));
    worst = std::max(worst, std::abs(e.distance_m - true_dist));
  }
  EXPECT_LT(worst, 2.0 * cfg.carrier.meters_per_sample());
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, TofBandwidth, ::testing::Values(5.0, 10.0, 20.0));

/// Upsampling-factor sweep (paper's K, eq. 2-3): resolution improves with K.
class TofUpsampling : public ::testing::TestWithParam<int> {};

TEST_P(TofUpsampling, QuantizationShrinksWithK) {
  SrsConfig cfg;
  const SrsSymbol tx = make_srs_symbol(cfg);
  const TofEstimator est(cfg, GetParam(), 0.0, 0.0, false);  // pure eq. 3, no refinement
  geo::Mt19937_64 rng(11);
  double worst = 0.0;
  for (double frac = 0.05; frac < 1.0; frac += 0.13) {
    SrsChannelParams ch;
    ch.delay_s = (20.0 + frac) / cfg.carrier.sample_rate_hz;
    ch.snr_db = 40.0;
    const TofEstimate e = est.estimate(apply_srs_channel(tx, ch, rng));
    worst = std::max(worst, std::abs(e.delay_samples - (20.0 + frac)));
  }
  // Pure maxpos quantizes to 1/K sample.
  EXPECT_LE(worst, 0.5 / GetParam() + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Factors, TofUpsampling, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace skyran::lte

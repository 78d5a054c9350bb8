#include "lte/ranging.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "rf/units.hpp"

namespace skyran::lte {

namespace {

/// `x` with its lowest `bits` bits reversed.
std::size_t bit_reverse(std::size_t x, int bits) {
  std::size_t r = 0;
  for (int b = 0; b < bits; ++b, x >>= 1) r = (r << 1) | (x & 1);
  return r;
}

}  // namespace

TofEstimator::TofEstimator(SrsConfig config, int k_factor, double max_delay_samples,
                           double leading_edge_fraction, bool refine_peak,
                           double min_peak_to_side_db)
    : config_(config),
      k_factor_(k_factor),
      leading_edge_fraction_(leading_edge_fraction),
      refine_peak_(refine_peak),
      min_peak_to_side_db_(min_peak_to_side_db) {
  expects(k_factor >= 1, "TofEstimator: K must be >= 1");
  expects(leading_edge_fraction >= 0.0 && leading_edge_fraction <= 1.0,
          "TofEstimator: leading-edge fraction must be in [0,1]");
  expects(min_peak_to_side_db >= 0.0, "TofEstimator: quality gate must be >= 0 dB");
  const std::size_t n = config.carrier.fft_size;
  const std::size_t m = n * static_cast<std::size_t>(k_factor);
  expects(is_power_of_two(m),
          "TofEstimator: K times the FFT size must be a power of two");
  const double alias_period =
      static_cast<double>(config.carrier.fft_size) / config.comb;
  if (max_delay_samples <= 0.0) max_delay_samples = alias_period / 2.0;
  expects(max_delay_samples <= alias_period,
          "TofEstimator: search window exceeds the comb alias period");
  max_delay_samples_ = max_delay_samples;
  // At most m / comb, since max_delay_samples is within the alias period.
  window_ = static_cast<std::size_t>(max_delay_samples_ * k_factor_);

  // Occupied bins, their reference values and their slots in the K*N buffer
  // after upsample_zero_pad (positive half in front, negative half at the
  // tail) and the radix-2 bit-reversal permutation.
  const SrsSymbol reference = make_srs_symbol(config);
  for (const int sc : occupied_subcarriers(config)) bins_.push_back(fft_bin(sc, n));
  std::sort(bins_.begin(), bins_.end());
  int log2m = 0;
  while ((std::size_t{1} << log2m) < m) ++log2m;
  std::vector<char> nonzero(m, 0);
  for (const std::size_t b : bins_) {
    ref_.push_back(reference.freq[b]);
    slots_.push_back(bit_reverse(b < n / 2 ? b : m - n + b, log2m));
    nonzero[slots_.back()] = 1;
  }

  // Twiddles from ifft_radix2's own recurrence, so each entry is the exact
  // value its butterfly loop multiplied by.
  twiddles_.resize(m - 1);
  for (std::size_t len = 2; len <= m; len <<= 1) {
    const double ang = 2.0 * std::numbers::pi / static_cast<double>(len);
    const Cplx wlen(std::cos(ang), std::sin(ang));
    Cplx w(1.0, 0.0);
    for (std::size_t j = 0; j < len / 2; ++j) {
      twiddles_[len / 2 - 1 + j] = w;
      w *= wlen;
    }
  }

  // Per stage, the blocks with a non-zero input half; a block's outputs are
  // non-zero when either half is.
  stage_begin_.push_back(0);
  for (std::size_t half = 1; half < m; half <<= 1) {
    std::vector<char> next(m / (2 * half), 0);
    for (std::size_t b = 0; b < next.size(); ++b) {
      const bool lo = nonzero[2 * b] != 0;
      const bool hi = nonzero[2 * b + 1] != 0;
      if (!lo && !hi) continue;
      next[b] = 1;
      blocks_.push_back({static_cast<std::uint32_t>(2 * half * b),
                         lo && hi ? Block::kBoth : lo ? Block::kLowerOnly : Block::kUpperOnly});
    }
    stage_begin_.push_back(blocks_.size());
    nonzero.swap(next);
  }
}

std::span<const Cplx> TofEstimator::correlate(const SrsSymbol& received,
                                              CplxVec& scratch) const {
  expects(received.freq.size() == config_.carrier.fft_size,
          "TofEstimator::correlate: FFT size mismatch");
  expects(window_ >= 1, "TofEstimator::correlate: degenerate search window");
  const std::size_t m = config_.carrier.fft_size * static_cast<std::size_t>(k_factor_);
  const std::size_t n_occ = bins_.size();
  // Layout: [0, m) the IFFT buffer, then the gathered received bins, then
  // their products with the reference.
  scratch.resize(m + 2 * n_occ);
  Cplx* const a = scratch.data();
  Cplx* const gathered = a + m;
  Cplx* const prod = gathered + n_occ;

  // y = ifft(upsample(s . h*))  (paper eq. 1-2), on the occupied bins only:
  // every other product is an exact zero.
  for (std::size_t k = 0; k < n_occ; ++k) gathered[k] = received.freq[bins_[k]];
  kernels::multiply_conjugate(gathered, ref_.data(), prod, n_occ);
  for (std::size_t k = 0; k < n_occ; ++k) a[slots_[k]] = prod[k];

  // Radix-2 DIT stages over the planned blocks. A zero half is never read:
  // x + 0 == x - 0 == x and 0 - v == -v exactly, so a one-sided block copies
  // or negates instead of computing butterflies, and only the sign of an
  // exact zero can differ from the dense transform. Every slot a stage reads
  // was written earlier in this call, so the buffer needs no clearing. The
  // last stage computes only the outputs below the window.
  const std::size_t n_stages = stage_begin_.size() - 1;
  std::size_t half = 1;
  for (std::size_t s = 0; s < n_stages; ++s, half <<= 1) {
    const Cplx* const tw = twiddles_.data() + half - 1;
    const bool last = s + 1 == n_stages;
    const std::size_t n_plus = last ? std::min(window_, half) : half;
    const std::size_t n_minus = last ? (window_ > half ? window_ - half : 0) : half;
    for (std::size_t bi = stage_begin_[s]; bi < stage_begin_[s + 1]; ++bi) {
      Cplx* const lo = a + blocks_[bi].start;
      Cplx* const hi = lo + half;
      switch (blocks_[bi].kind) {
        case Block::kBoth:
          for (std::size_t j = 0; j < n_minus; ++j) {
            const Cplx u = lo[j];
            const Cplx v = hi[j] * tw[j];
            lo[j] = u + v;
            hi[j] = u - v;
          }
          for (std::size_t j = n_minus; j < n_plus; ++j) lo[j] = lo[j] + hi[j] * tw[j];
          break;
        case Block::kLowerOnly:
          std::copy(lo, lo + n_minus, hi);
          break;
        case Block::kUpperOnly:
          for (std::size_t j = 0; j < n_minus; ++j) {
            const Cplx v = hi[j] * tw[j];
            lo[j] = v;
            hi[j] = -v;
          }
          for (std::size_t j = n_minus; j < n_plus; ++j) lo[j] = hi[j] * tw[j];
          break;
      }
    }
  }
  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t j = 0; j < window_; ++j) a[j] *= scale;
  return {a, window_};
}

TofEstimate TofEstimator::estimate(const SrsSymbol& received) const {
  CplxVec scratch;
  return estimate(received, scratch);
}

TofEstimate TofEstimator::estimate(const SrsSymbol& received, CplxVec& scratch) const {
  expects(received.freq.size() == config_.carrier.fft_size,
          "TofEstimator::estimate: FFT size mismatch");
  if (window_ == 0) {
    // Degenerate search window (e.g. a sub-bin max_delay after clock sag):
    // there is nothing to search, so return a flagged zero estimate rather
    // than aborting the whole pipeline; callers drop !quality_ok tuples.
    SKYRAN_COUNTER_INC("lte.tof.degenerate_window");
    TofEstimate flagged;
    flagged.quality_ok = false;
    return flagged;
  }
  return pick_peak(correlate(received, scratch));
}

TofEstimate TofEstimator::pick_peak(std::span<const Cplx> up) const {
  expects(!up.empty(), "TofEstimator::pick_peak: empty correlation window");
  const std::size_t window = up.size();
  // Peak search restricted to the physically plausible delay window
  // (paper eq. 3 with a window; the comb aliases the response beyond it).
  // Fused argmax + total-power scan over the window (kernels layer).
  const kernels::PowerPeak pp = kernels::power_peak_scan(up.data(), window);
  std::size_t best = pp.argmax;
  double best_mag = pp.peak;
  const double total_mag = pp.total;

  // First-arrival detection: step back from the global peak to the earliest
  // local maximum still carrying a significant fraction of the peak power.
  if (leading_edge_fraction_ > 0.0) {
    const double floor_mag =
        best_mag * leading_edge_fraction_ * leading_edge_fraction_;  // power domain
    for (std::size_t i = 0; i < best; ++i) {
      const double m = std::norm(up[i]);
      const bool local_max = m >= (i > 0 ? std::norm(up[i - 1]) : 0.0) &&
                             (i + 1 < window ? m >= std::norm(up[i + 1]) : true);
      if (local_max && m >= floor_mag) {
        best = i;
        best_mag = m;
        break;
      }
    }
  }

  // Parabolic interpolation over the log-magnitudes of the peak's neighbors
  // refines the delay below the upsampled bin width (standard correlator
  // practice; the bins are K-fold finer than a sample to begin with).
  double frac = 0.0;
  if (refine_peak_ && best > 0 && best + 1 < window) {
    const double m0 = std::sqrt(std::norm(up[best - 1]));
    const double m1 = std::sqrt(std::norm(up[best]));
    const double m2 = std::sqrt(std::norm(up[best + 1]));
    const double denom = m0 - 2.0 * m1 + m2;
    if (std::abs(denom) > 1e-12) frac = std::clamp(0.5 * (m0 - m2) / denom, -0.5, 0.5);
  }

  TofEstimate out;
  out.delay_samples = (static_cast<double>(best) + frac) / k_factor_;
  out.delay_s = out.delay_samples / config_.carrier.sample_rate_hz;
  out.distance_m = out.delay_s * rf::kSpeedOfLight;
  const double mean_off_peak =
      (total_mag - best_mag) / static_cast<double>(window > 1 ? window - 1 : 1);
  out.peak_to_side_db =
      mean_off_peak > 0.0 ? rf::linear_to_db(best_mag / mean_off_peak) : 0.0;
  if (min_peak_to_side_db_ > 0.0 && out.peak_to_side_db < min_peak_to_side_db_)
    out.quality_ok = false;
  return out;
}

std::vector<TofEstimate> TofEstimator::estimate_batch(std::size_t n, const SymbolSource& source,
                                                      const std::function<void()>& head) const {
  SKYRAN_TRACE_SPAN("lte.tof.estimate_batch");
  std::vector<TofEstimate> out(n);
  // Lane scratch: a chunk takes a free one (or makes one) and hands it back,
  // so no more exist than lanes ran at once.
  struct Scratch {
    SrsSymbol symbol;
    CplxVec correlation;
  };
  std::mutex mu;
  std::vector<std::unique_ptr<Scratch>> free;
  const auto take = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!free.empty()) {
        std::unique_ptr<Scratch> s = std::move(free.back());
        free.pop_back();
        return s;
      }
    }
    return std::make_unique<Scratch>(
        Scratch{{config_, CplxVec(config_.carrier.fft_size)}, CplxVec{}});
  };
  // One item per chunk of `grain` symbols, behind the head when there is
  // one. Lanes claim items in index order, so the head starts first.
  const std::size_t grain = core::ThreadPool::default_grain(n);
  const std::size_t first = head ? 1 : 0;
  const std::size_t items = first + (n + grain - 1) / grain;
  core::parallel_for_chunks(items, 1, [&](std::size_t, std::size_t item, std::size_t) {
    if (item < first) {
      head();
      return;
    }
    std::unique_ptr<Scratch> s = take();
    const std::size_t begin = (item - first) * grain;
    for (std::size_t i = begin; i < std::min(n, begin + grain); ++i)
      out[i] = estimate(source(i, s->symbol), s->correlation);
    std::lock_guard<std::mutex> lk(mu);
    free.push_back(std::move(s));
  });
  SKYRAN_COUNTER_ADD("lte.tof.correlations", out.size());
  SKYRAN_HISTOGRAM_OBSERVE("lte.tof.batch_symbols", out.size());
  if (obs::enabled()) {
    // Correlation-quality telemetry, recorded after the parallel sweep so
    // the hot per-symbol kernel stays untouched.
    for (const TofEstimate& e : out) {
      SKYRAN_HISTOGRAM_OBSERVE("lte.tof.peak_to_side_db", e.peak_to_side_db);
      SKYRAN_HISTOGRAM_OBSERVE("lte.tof.distance_m", e.distance_m);
    }
  }
  return out;
}

std::vector<TofEstimate> TofEstimator::estimate_batch(
    std::span<const SrsSymbol> received) const {
  return estimate_batch(received.size(), [&](std::size_t i, SrsSymbol&) -> const SrsSymbol& {
    return received[i];
  });
}

}  // namespace skyran::lte

// Time-of-flight estimation from SRS symbols (paper Sec 3.2.2, eq. 1-3):
// cross-correlate the received against the known symbol via an IFFT, after
// K-fold zero-pad upsampling for sub-sample delay resolution; the magnitude
// peak position is the delay estimate.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "lte/srs.hpp"

namespace skyran::lte {

struct TofEstimate {
  double delay_samples = 0.0;  ///< in base (non-upsampled) sample units
  double delay_s = 0.0;
  double distance_m = 0.0;     ///< delay * c
  double peak_to_side_db = 0.0;  ///< peak power over mean off-peak power
  /// False when the estimate is unusable: the correlation peak failed the
  /// quality gate (peak_to_side below min_peak_to_side_db) or the search
  /// window was degenerate. Consumers must drop flagged estimates instead of
  /// feeding them to the solver.
  bool quality_ok = true;
};

class TofEstimator {
 public:
  /// `k_factor`: upsampling factor K (paper uses 4).
  /// `max_delay_samples`: correlation peaks are searched in
  /// [0, max_delay_samples) base samples; defaults to fft_size/(4*comb) to
  /// stay clear of the comb's time-domain alias.
  /// `leading_edge_fraction`: when > 0, the estimator returns the earliest
  /// local peak whose magnitude reaches this fraction of the global peak
  /// (first-arrival detection, which suppresses the positive bias multipath
  /// echoes impose on a max-peak search). 0 disables it (pure eq. 3).
  /// `refine_peak`: parabolic sub-bin interpolation around the chosen peak;
  /// disable to get the paper's raw 1/K-sample quantization.
  /// K times the carrier's FFT size must be a power of two (every LTE
  /// bandwidth but 15 MHz, with K in {1, 2, 4, 8}).
  /// `min_peak_to_side_db`: quality gate. Estimates whose peak-to-sidelobe
  /// ratio falls below this are returned with quality_ok = false (too noisy
  /// to trust: an SNR-sagged or jammed symbol correlates to a flat response
  /// whose "peak" is arbitrary). 0 disables the gate.
  explicit TofEstimator(SrsConfig config, int k_factor = 4, double max_delay_samples = 0.0,
                        double leading_edge_fraction = 0.6, bool refine_peak = true,
                        double min_peak_to_side_db = 0.0);

  /// Estimate the delay of `received` relative to the known transmitted
  /// symbol for this config: correlate(), then pick_peak(). A degenerate
  /// window() (0) returns a flagged estimate.
  TofEstimate estimate(const SrsSymbol& received) const;

  /// The planned correlator: the first window() samples of
  /// ifft(upsample_zero_pad(received . reference*, K)), equal value for
  /// value to that composed sequence (only the sign of an exact zero may
  /// differ). Runs the radix-2 IFFT on the occupied bins only, skipping
  /// blocks whose inputs are structurally zero and every output past the
  /// window. `scratch` (any prior contents) is resized to K * fft_size plus
  /// room for the occupied bins; the returned span points into it. Requires
  /// window() >= 1.
  std::span<const Cplx> correlate(const SrsSymbol& received, CplxVec& scratch) const;

  /// Delay estimate from a correlation window (eq. 3 plus leading-edge
  /// detection, parabolic refinement and the quality gate).
  TofEstimate pick_peak(std::span<const Cplx> window) const;

  /// Search window in upsampled bins: floor(max_delay_samples * K); 0 when
  /// that is degenerate (a sub-bin max_delay_samples).
  std::size_t window() const { return window_; }

  /// Where estimate_batch's symbols come from: source(i, scratch) returns
  /// symbol i, either one the caller holds or one it builds in `scratch`, a
  /// symbol of this config's FFT size that belongs to the running lane for
  /// the call: it starts zeroed and keeps whatever the lane's earlier
  /// symbols wrote into it.
  using SymbolSource = std::function<const SrsSymbol&(std::size_t, SrsSymbol&)>;

  /// estimate() of `n` symbols from `source`, spread across the global
  /// thread pool in one dispatch; each lane reuses one correlation scratch.
  /// `head`, when set, is the dispatch's first item: it runs once, on one
  /// lane, while the other lanes estimate (serial work the caller overlaps
  /// with the correlator; it must not touch what `source` reads). out[i] ==
  /// estimate(symbol i) bit for bit regardless of the worker count.
  std::vector<TofEstimate> estimate_batch(std::size_t n, const SymbolSource& source,
                                          const std::function<void()>& head = {}) const;

  /// estimate_batch over symbols the caller holds.
  std::vector<TofEstimate> estimate_batch(std::span<const SrsSymbol> received) const;

  const SrsConfig& config() const { return config_; }
  int k_factor() const { return k_factor_; }
  double max_delay_samples() const { return max_delay_samples_; }
  double min_peak_to_side_db() const { return min_peak_to_side_db_; }

 private:
  /// estimate() reusing the caller's correlation scratch buffer.
  TofEstimate estimate(const SrsSymbol& received, CplxVec& scratch) const;

  /// One radix-2 block of a planned stage whose inputs are not all zero.
  struct Block {
    std::uint32_t start;
    enum Kind : std::uint8_t { kBoth, kLowerOnly, kUpperOnly } kind;
  };

  SrsConfig config_;
  int k_factor_;
  std::size_t window_ = 0;
  // The correlation plan, built once by the constructor.
  std::vector<std::size_t> bins_;   ///< occupied FFT bins, ascending
  CplxVec ref_;                     ///< reference symbol at bins_
  std::vector<std::size_t> slots_;  ///< bit-reversed K*N slot of each bin
  /// Stage twiddles: stage `half` (blocks of 2*half) at offset half - 1.
  CplxVec twiddles_;
  std::vector<Block> blocks_;             ///< every stage's non-zero blocks
  std::vector<std::size_t> stage_begin_;  ///< stage s's blocks in blocks_

  double max_delay_samples_;
  double leading_edge_fraction_;
  bool refine_peak_;
  double min_peak_to_side_db_;
};

}  // namespace skyran::lte

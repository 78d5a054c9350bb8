#include "localization/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "obs/obs.hpp"
#include "rf/units.hpp"

namespace skyran::localization {

namespace {

// NLOS echo profile (echoes below the direct path): they widen the ToF
// spread to the ~25 ns the paper reports without biasing the median,
// matching Fig. 17's environment-independent ranging accuracy.
constexpr int kNlosTaps = 3;
constexpr double kNlosMeanExcessNs = 50.0;
constexpr double kNlosFirstTapPowerDb = -4.0;
constexpr double kNlosTapDecayDb = 4.0;

}  // namespace

GpsTofSeries collect_gps_tof(const std::vector<uav::FlightSample>& flight, geo::Vec3 ue_position,
                             const rf::RayTraceChannel& channel, const rf::LinkBudget& budget,
                             uav::GpsSensor& gps, const RangingConfig& config,
                             geo::Mt19937_64& rng, RangingFaultModel* faults) {
  // An empty or single-point flight has zero measurement intervals. Bail out
  // before the interval count below: `flight.size() - 1` on a std::size_t
  // would underflow an empty flight to ~2^64 intervals. Depot-swapped UAVs
  // (scenario campaigns) legitimately produce zero-length flights.
  if (flight.size() < 2) return {};

  const lte::SrsSymbol tx = lte::make_srs_symbol(config.srs);
  const std::vector<int> res = lte::occupied_subcarriers(config.srs);
  const lte::TofEstimator estimator(config.srs, kUpsampleFactor, 0.0, 0.6, true,
                                    config.min_peak_to_side_db);
  const int srs_per_gps = std::max(1, static_cast<int>(std::round(kSrsRateHz / kGpsRateHz)));

  // The flight is processed in bounded batches of GPS intervals so peak
  // memory stays capped (each buffered symbol is fft_size complex doubles; a
  // whole long flight would be hundreds of MB). Five passes per batch keep
  // the output bit-identical to a fully serial sweep; only the serial ones
  // draw from an RNG, and they draw in flight order:
  //   1. serial: each symbol's geometry and the injected SRS loss;
  //   2. parallel: one ray trace per symbol for path loss and line of
  //      sight, then sag and the SNR gate (pure functions of geometry);
  //   3. serial (span `loc.collect.draws`): the NLOS tap draws and the
  //      receiver noise into the symbol's own buffer. Noise is written on
  //      the occupied bins only, which are all the correlator reads, but
  //      the stream advances over every bin as a full draw would; the
  //      other bins stay zero from the buffer's creation;
  //   4. parallel: add the transmitted symbol through the channel in place,
  //      then cross-correlate (each symbol's estimate is independent of the
  //      others, so batch boundaries cannot change it);
  //   5. serial: aggregate per GPS interval in interval order, consuming the
  //      GPS sensor.
  // Passes never overlap across batches. Every buffer lives on this thread
  // and is reused across batches.
  constexpr std::size_t kBatchSymbolBudget = 512;
  const std::size_t batch_intervals =
      std::max<std::size_t>(1, kBatchSymbolBudget / static_cast<std::size_t>(srs_per_gps));
  const std::size_t n_intervals = flight.size() - 1;

  SKYRAN_TRACE_SPAN("loc.collect_gps_tof");
  std::uint64_t dropped_low_snr = 0;
  std::uint64_t gps_outages = 0;
  std::uint64_t fault_symbols_lost = 0;
  std::uint64_t fault_gps_outages = 0;
  std::uint64_t gated_low_quality = 0;
  GpsTofSeries out;
  out.reserve(flight.size());

  struct Candidate {
    geo::Vec3 uav;          // true UAV position at the symbol
    double time_s = 0.0;
    std::size_t interval = 0;  // interval index relative to `base`
    double snr_db = 0.0;
    bool decoded = false;  // passed the SNR gate
    bool los = false;      // computed only for decoded symbols
  };
  std::vector<Candidate> candidates;
  std::vector<lte::SrsChannelParams> channels;
  std::vector<lte::SrsSymbol> received;  // grows to the largest batch
  std::vector<std::size_t> received_interval;
  for (std::size_t base = 0; base < n_intervals; base += batch_intervals) {
    const std::size_t last = std::min(n_intervals, base + batch_intervals);

    candidates.clear();
    for (std::size_t i = base; i < last; ++i) {
      const uav::FlightSample& a = flight[i];
      const uav::FlightSample& b = flight[i + 1];
      for (int m = 0; m < srs_per_gps; ++m) {
        // UAV keeps moving between SRS reports: interpolate the true position.
        const double frac = static_cast<double>(m) / srs_per_gps;
        const geo::Vec3 uav_true = a.position + (b.position - a.position) * frac;
        const double symbol_time_s = a.time_s + frac * (b.time_s - a.time_s);
        if (faults != nullptr && faults->srs_symbol_lost(symbol_time_s)) {
          ++fault_symbols_lost;
          continue;
        }
        candidates.push_back({uav_true, symbol_time_s, i - base});
      }
    }

    core::parallel_for(candidates.size(), [&](std::size_t k) {
      Candidate& c = candidates[k];
      const rf::RayTraceChannel::Link link = channel.trace(c.uav, ue_position);
      c.snr_db = budget.snr_db(link.path_loss_db);
      if (faults != nullptr) c.snr_db -= faults->srs_snr_sag_db(c.time_s);
      c.decoded = c.snr_db >= config.min_snr_db;  // else the decoder lost the symbol
      c.los = c.decoded && link.line_of_sight;
    });

    std::size_t n_received = 0;
    {
      SKYRAN_TRACE_SPAN("loc.collect.draws");
      for (const Candidate& c : candidates) {
        if (!c.decoded) {
          ++dropped_low_snr;
          continue;
        }
        if (n_received == received.size()) {
          channels.emplace_back();
          received.push_back({tx.config, lte::CplxVec(tx.freq.size())});
          received_interval.push_back(0);
        }
        lte::SrsChannelParams& ch = channels[n_received];
        ch.delay_s = (c.uav.dist(ue_position) + kProcessingOffsetM) / rf::kSpeedOfLight;
        ch.snr_db = c.snr_db;
        ch.taps.clear();
        if (!c.los) {
          ch.taps = lte::make_nlos_taps(kNlosTaps, kNlosMeanExcessNs * 1e-9,
                                        kNlosFirstTapPowerDb, kNlosTapDecayDb, rng);
        }
        lte::draw_srs_noise(ch.snr_db, rng, res, received[n_received].freq);
        received_interval[n_received] = c.interval;
        ++n_received;
      }
    }

    core::parallel_for(n_received, [&](std::size_t k) {
      lte::add_srs_signal(tx, channels[k], res, received[k].freq);
    });
    const std::vector<lte::TofEstimate> estimates =
        estimator.estimate_batch(std::span<const lte::SrsSymbol>(received.data(), n_received));

    std::vector<double> distance_sums(last - base, 0.0);
    std::vector<int> tof_counts(last - base, 0);
    for (std::size_t s = 0; s < estimates.size(); ++s) {
      if (!estimates[s].quality_ok) {  // gate: flat/noisy correlation peak
        ++gated_low_quality;
        continue;
      }
      distance_sums[received_interval[s]] += estimates[s].distance_m;
      ++tof_counts[received_interval[s]];
    }

    for (std::size_t i = base; i < last; ++i) {
      if (tof_counts[i - base] == 0) continue;
      const uav::FlightSample& a = flight[i];
      if (faults != nullptr && faults->gps_forced_outage(a.time_s) && !gps.in_outage()) {
        // Scripted outage window: drive the sensor's own outage machinery so
        // the fix below follows the exact last-valid-position semantics.
        gps.force_outage_for(1);
        ++fault_gps_outages;
      }
      const uav::GpsFix fix = gps.sample(a.position, a.time_s);
      if (!fix.valid) {  // outage: a ToF without a position is useless
        ++gps_outages;
        continue;
      }
      out.push_back({fix.time_s, fix.position, distance_sums[i - base] / tof_counts[i - base]});
    }
  }
  SKYRAN_COUNTER_ADD("loc.srs.dropped_low_snr", dropped_low_snr);
  SKYRAN_COUNTER_ADD("loc.gps.outages", gps_outages);
  SKYRAN_COUNTER_ADD("loc.tof.gated_low_quality", gated_low_quality);
  SKYRAN_COUNTER_ADD("fault.srs.symbols_lost", fault_symbols_lost);
  SKYRAN_COUNTER_ADD("fault.gps.forced_outages", fault_gps_outages);
  SKYRAN_COUNTER_ADD("loc.tuples.collected", out.size());
  SKYRAN_HISTOGRAM_OBSERVE("loc.tuples.per_flight", out.size());
  return out;
}

}  // namespace skyran::localization

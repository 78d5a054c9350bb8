#include "localization/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

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

std::vector<GpsTofSeries> collect_gps_tof(const std::vector<uav::FlightSample>& flight,
                                          std::span<const geo::Vec3> ue_positions,
                                          const rf::RayTraceChannel& channel,
                                          const rf::LinkBudget& budget,
                                          std::span<uav::GpsSensor> gps,
                                          const RangingConfig& config, geo::Mt19937_64& rng,
                                          RangingFaultModel* faults) {
  expects(gps.size() == ue_positions.size(), "collect_gps_tof: one GPS sensor per UE");
  std::vector<GpsTofSeries> out(ue_positions.size());
  // An empty or single-point flight has zero measurement intervals. Bail out
  // before the interval count below: `flight.size() - 1` on a std::size_t
  // would underflow an empty flight to ~2^64 intervals. Depot-swapped UAVs
  // (scenario campaigns) legitimately produce zero-length flights.
  if (flight.size() < 2) return out;

  const lte::SrsSymbol tx = lte::make_srs_symbol(config.srs);
  const std::vector<int> res = lte::occupied_subcarriers(config.srs);
  const std::size_t n_occ = res.size();
  const lte::TofEstimator estimator(config.srs, kUpsampleFactor, 0.0, 0.6, true,
                                    config.min_peak_to_side_db);
  const int srs_per_gps = std::max(1, static_cast<int>(std::round(kSrsRateHz / kGpsRateHz)));

  // Collection runs over units: one unit is one UE's batch of GPS intervals,
  // bounded so memory stays capped whatever the flight's length. Units go in
  // UE order, then flight order. Each unit takes five passes; only the
  // serial ones draw from an RNG:
  //   1. serial: each symbol's geometry and the injected SRS loss (the
  //      fault model's RNG);
  //   2. parallel: one ray trace per symbol for path loss and line of
  //      sight, then sag and the SNR gate (pure functions of geometry);
  //   3. serial (span `loc.collect.draws`): the NLOS tap draws and the
  //      receiver noise's stream walk, the only `rng` draws. The walk stores
  //      the accepted word pair of each occupied bin, which are all the
  //      correlator reads; the stream still advances over every bin as a
  //      full draw would;
  //   4. parallel: turn each symbol's words into noise values in its lane's
  //      scratch symbol (the log, sqrt and divide per bin), add the
  //      transmitted symbol through the channel and cross-correlate (each
  //      symbol's estimate is independent of the others);
  //   5. serial: aggregate per GPS interval in interval order, consuming the
  //      UE's GPS sensor.
  // The units are pipelined over two slots: unit j+1's passes 1-2 run, then
  // one pool dispatch runs its pass 3 as the first item while the other
  // lanes run unit j's pass 4, then unit j's pass 5. Every RNG still draws
  // in unit order, so the output is that of running the units one by one.
  constexpr std::size_t kBatchSymbolBudget = 512;
  const std::size_t batch_intervals =
      std::max<std::size_t>(1, kBatchSymbolBudget / static_cast<std::size_t>(srs_per_gps));
  const std::size_t n_intervals = flight.size() - 1;
  const std::size_t batches_per_ue = (n_intervals + batch_intervals - 1) / batch_intervals;
  const std::size_t n_units = ue_positions.size() * batches_per_ue;

  SKYRAN_TRACE_SPAN("loc.collect_gps_tof");
  std::uint64_t dropped_low_snr = 0;
  std::uint64_t gps_outages = 0;
  std::uint64_t fault_symbols_lost = 0;
  std::uint64_t fault_gps_outages = 0;
  std::uint64_t gated_low_quality = 0;
  for (GpsTofSeries& series : out) series.reserve(flight.size());

  struct Candidate {
    geo::Vec3 uav;          // true UAV position at the symbol
    double time_s = 0.0;
    std::size_t interval = 0;  // interval index relative to the unit's base
    double snr_db = 0.0;
    bool decoded = false;  // passed the SNR gate
    bool los = false;      // computed only for decoded symbols
  };
  struct Unit {
    std::size_t ue = 0;
    std::size_t base = 0;  // intervals [base, last)
    std::size_t last = 0;
    std::vector<Candidate> candidates;
    std::size_t n_received = 0;
    // Per decoded symbol; the vectors grow to the largest unit so far and
    // are reused, so their first n_received entries are this unit's.
    std::vector<lte::SrsChannelParams> channels;
    std::vector<std::size_t> received_interval;
    std::vector<lte::PolarWords> noise_words;  // n_occ per symbol, in `res` order
  };

  // Passes 1-2 of unit j.
  const auto prepare = [&](Unit& u, std::size_t j) {
    u.ue = j / batches_per_ue;
    u.base = (j % batches_per_ue) * batch_intervals;
    u.last = std::min(n_intervals, u.base + batch_intervals);
    u.candidates.clear();
    for (std::size_t i = u.base; i < u.last; ++i) {
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
        u.candidates.push_back({uav_true, symbol_time_s, i - u.base});
      }
    }
    const geo::Vec3 ue_position = ue_positions[u.ue];
    core::parallel_for(u.candidates.size(), [&](std::size_t k) {
      Candidate& c = u.candidates[k];
      const rf::RayTraceChannel::Link link = channel.trace(c.uav, ue_position);
      c.snr_db = budget.snr_db(link.path_loss_db);
      if (faults != nullptr) c.snr_db -= faults->srs_snr_sag_db(c.time_s);
      c.decoded = c.snr_db >= config.min_snr_db;  // else the decoder lost the symbol
      c.los = c.decoded && link.line_of_sight;
    });
    // Room for every decoded symbol, made here so pass 3 allocates nothing.
    const std::size_t n_decoded = static_cast<std::size_t>(std::count_if(
        u.candidates.begin(), u.candidates.end(), [](const Candidate& c) { return c.decoded; }));
    if (u.channels.size() < n_decoded) {
      u.received_interval.resize(n_decoded);
      u.noise_words.resize(n_decoded * n_occ);
      u.channels.reserve(n_decoded);
      while (u.channels.size() < n_decoded) u.channels.emplace_back().taps.reserve(kNlosTaps);
    }
  };

  // Pass 3: the unit's `rng` draws, on whichever thread runs it.
  const auto draw = [&](Unit& u) {
    SKYRAN_TRACE_SPAN("loc.collect.draws");
    const geo::Vec3 ue_position = ue_positions[u.ue];
    u.n_received = 0;
    for (const Candidate& c : u.candidates) {
      if (!c.decoded) {
        ++dropped_low_snr;
        continue;
      }
      lte::SrsChannelParams& ch = u.channels[u.n_received];
      ch.delay_s = (c.uav.dist(ue_position) + kProcessingOffsetM) / rf::kSpeedOfLight;
      ch.snr_db = c.snr_db;
      if (c.los) {
        ch.taps.clear();
      } else {
        lte::make_nlos_taps(kNlosTaps, kNlosMeanExcessNs * 1e-9, kNlosFirstTapPowerDb,
                            kNlosTapDecayDb, rng, ch.taps);
      }
      lte::draw_srs_noise_words(
          rng, res, tx.freq.size(),
          std::span<lte::PolarWords>(u.noise_words).subspan(u.n_received * n_occ, n_occ));
      u.received_interval[u.n_received] = c.interval;
      ++u.n_received;
    }
  };

  // Pass 5.
  const auto aggregate = [&](const Unit& u, const std::vector<lte::TofEstimate>& estimates) {
    std::vector<double> distance_sums(u.last - u.base, 0.0);
    std::vector<int> tof_counts(u.last - u.base, 0);
    for (std::size_t s = 0; s < estimates.size(); ++s) {
      if (!estimates[s].quality_ok) {  // gate: flat/noisy correlation peak
        ++gated_low_quality;
        continue;
      }
      distance_sums[u.received_interval[s]] += estimates[s].distance_m;
      ++tof_counts[u.received_interval[s]];
    }
    uav::GpsSensor& sensor = gps[u.ue];
    for (std::size_t i = u.base; i < u.last; ++i) {
      if (tof_counts[i - u.base] == 0) continue;
      const uav::FlightSample& a = flight[i];
      if (faults != nullptr && faults->gps_forced_outage(a.time_s) && !sensor.in_outage()) {
        // Scripted outage window: drive the sensor's own outage machinery so
        // the fix below follows the exact last-valid-position semantics.
        sensor.force_outage_for(1);
        ++fault_gps_outages;
      }
      const uav::GpsFix fix = sensor.sample(a.position, a.time_s);
      if (!fix.valid) {  // outage: a ToF without a position is useless
        ++gps_outages;
        continue;
      }
      out[u.ue].push_back(
          {fix.time_s, fix.position, distance_sums[i - u.base] / tof_counts[i - u.base]});
    }
  };

  std::array<Unit, 2> slots;
  if (n_units > 0) {
    prepare(slots[0], 0);
    draw(slots[0]);
  }
  for (std::size_t j = 0; j < n_units; ++j) {
    const Unit& cur = slots[j % 2];
    Unit* const next = j + 1 < n_units ? &slots[(j + 1) % 2] : nullptr;
    if (next != nullptr) prepare(*next, j + 1);
    const std::vector<lte::TofEstimate> estimates = estimator.estimate_batch(
        cur.n_received,
        [&](std::size_t k, lte::SrsSymbol& rx) -> const lte::SrsSymbol& {
          lte::place_srs_noise(
              cur.channels[k].snr_db,
              std::span<const lte::PolarWords>(cur.noise_words).subspan(k * n_occ, n_occ), res,
              rx.freq);
          lte::add_srs_signal(tx, cur.channels[k], res, rx.freq);
          return rx;
        },
        next != nullptr ? std::function<void()>([&] { draw(*next); }) : std::function<void()>());
    aggregate(cur, estimates);
  }
  SKYRAN_COUNTER_ADD("loc.srs.dropped_low_snr", dropped_low_snr);
  SKYRAN_COUNTER_ADD("loc.gps.outages", gps_outages);
  SKYRAN_COUNTER_ADD("loc.tof.gated_low_quality", gated_low_quality);
  SKYRAN_COUNTER_ADD("fault.srs.symbols_lost", fault_symbols_lost);
  SKYRAN_COUNTER_ADD("fault.gps.forced_outages", fault_gps_outages);
  for (const GpsTofSeries& series : out) {
    SKYRAN_COUNTER_ADD("loc.tuples.collected", series.size());
    SKYRAN_HISTOGRAM_OBSERVE("loc.tuples.per_flight", series.size());
  }
  return out;
}

}  // namespace skyran::localization

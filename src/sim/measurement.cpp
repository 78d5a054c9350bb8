#include "sim/measurement.hpp"

#include <algorithm>
#include <cstdint>
#include <random>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "obs/obs.hpp"

namespace skyran::sim {

std::size_t run_measurement_flight(const World& world, const uav::FlightPlan& plan,
                                   rem::RemBank& bank, const MeasurementConfig& config,
                                   geo::Mt19937_64& rng, FaultInjector* faults,
                                   double start_time_s) {
  expects(bank.ue_count() == world.ue_positions().size(),
          "run_measurement_flight: one bank UE per world UE required");
  expects(bank.ue_count() > 0, "run_measurement_flight: no REMs to update");
  expects(config.report_rate_hz > 0.0, "run_measurement_flight: report rate must be positive");

  const bool inject = faults != nullptr && faults->active();
  const std::span<const geo::Vec3> ues = world.ue_positions();
  const std::size_t n_ues = ues.size();
  const std::vector<uav::FlightSample> samples =
      uav::fly(plan, 1.0 / config.report_rate_hz, start_time_s);
  std::normal_distribution<double> fading(0.0, config.fading_sigma_db);

  // Three passes per batch of flight samples keep the bank bit-identical to
  // a fully serial sweep: (1) resolve each sample's position, sag and
  // backhaul state (the injector queries are const), (2) ray-trace the
  // ground-truth SNR of every (sample x UE) in parallel (a pure function of
  // geometry), (3) draw the fading and deposit serially in flight order.
  // Batches bound the SNR buffer; every buffer lives on this thread.
  constexpr std::size_t kBatchSamples = 1024;
  const std::size_t batch_cap = std::min(kBatchSamples, samples.size());
  std::vector<geo::Vec3> at(batch_cap);
  std::vector<double> sag_db(batch_cap);
  std::vector<std::uint8_t> deliverable(batch_cap);
  std::vector<double> snr_db(batch_cap * n_ues);

  std::uint64_t backhaul_dropped = 0;
  std::uint64_t wind_drifted = 0;
  for (std::size_t base = 0; base < samples.size(); base += kBatchSamples) {
    const std::size_t n = std::min(kBatchSamples, samples.size() - base);
    for (std::size_t s = 0; s < n; ++s) {
      const uav::FlightSample& sample = samples[base + s];
      at[s] = sample.position;
      sag_db[s] = 0.0;
      deliverable[s] = 1;
      if (inject) {
        const geo::Vec2 drift = faults->wind_offset_m(sample.time_s);
        if (drift.x != 0.0 || drift.y != 0.0) {
          at[s] += geo::Vec3{drift.x, drift.y, 0.0};
          ++wind_drifted;
        }
        sag_db[s] = faults->srs_snr_sag_db(sample.time_s);
        deliverable[s] = !faults->backhaul_down(sample.time_s);
      }
    }

    core::parallel_for(n * n_ues, [&](std::size_t k) {
      snr_db[k] = world.snr_db(at[k / n_ues], ues[k % n_ues]);
    });

    for (std::size_t s = 0; s < n; ++s) {
      const geo::Vec2 ground = world.area().clamp(at[s].xy());
      for (std::size_t i = 0; i < n_ues; ++i) {
        const double snr = snr_db[s * n_ues + i] + fading(rng) - sag_db[s];
        if (!deliverable[s]) {  // backhaul outage: the report never reaches the REM
          ++backhaul_dropped;
          continue;
        }
        bank.add_measurement(i, ground, snr);
      }
    }
  }
  if (inject) {
    SKYRAN_COUNTER_ADD("fault.backhaul.reports_dropped", backhaul_dropped);
    SKYRAN_COUNTER_ADD("fault.wind.drifted_reports", wind_drifted);
  }
  return samples.size();
}

}  // namespace skyran::sim

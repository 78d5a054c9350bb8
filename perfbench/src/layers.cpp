#include "layers.hpp"

namespace perfbench {

std::vector<Metric> per_layer(const RegistryView& v, const TracedRun& t) {
  const auto per = [&](double x) { return x / t.passes; };
  const auto span = [&](const char* s) { return per(v.span_ms(s)); };
  const auto count = [&](const char* c) { return per(static_cast<double>(v.counter(c))); };

  const double hour = span("campaign.hour");
  const double fepoch = span("fleet.epoch");
  const double fserve = span("fleet.serve");
  const double fphases = span("fleet.measure") + span("fleet.decide") + span("fleet.apply") +
                         span("fleet.sinr") + fserve;
  const double cepoch = span("epoch.run");
  // epoch.measure_and_place stays open to the end of run_epoch, so it
  // encloses epoch.placement and epoch.serve.
  const double cphases =
      span("epoch.localize") + span("epoch.altitude") + span("epoch.measure_and_place");
  const double reest = count("rem.bank.cells_reestimated");
  const double cached = count("rem.bank.cells_cached");
  const double hits = count("epoch.rem_cache.hit");
  const double misses = count("epoch.rem_cache.miss");
  const double dispatches = count("core.pool.runs_parallel");
  const double inline_runs = count("core.pool.runs_inline");
  const double chunks = count("core.pool.chunks");

  return {
      {"scenario.hour_ms", hour, "ms"},
      {"scenario.self_ms", hour > 0.0 ? self_time(hour, {fepoch}) : 0.0, "ms"},
      {"fleet.epoch_ms", fepoch, "ms"},
      {"fleet.measure_ms", span("fleet.measure"), "ms"},
      {"fleet.decide_ms", span("fleet.decide"), "ms"},
      {"fleet.apply_ms", span("fleet.apply"), "ms"},
      {"fleet.sinr_ms", span("fleet.sinr"), "ms"},
      {"fleet.serve_ms", fserve, "ms"},
      {"fleet.serve_share", ratio(fserve, fepoch), "fraction"},
      {"fleet.phase_share", ratio(fphases, fepoch), "fraction"},
      {"fleet.ue_epochs", v.gauge("fleet.ues") * count("fleet.epochs"), "count"},
      {"fleet.ho_attempts", count("ho.attempts"), "count"},
      {"fleet.handovers", count("ho.successes"), "count"},
      {"lte.ttis", count("traffic.ttis"), "count"},
      {"lte.ue_ttis", count("traffic.sched.ue_ttis"), "count"},
      {"lte.harq_retx", count("traffic.harq.retx"), "count"},
      {"lte.tof_batch_ms", span("lte.tof.estimate_batch"), "ms"},
      {"lte.tof_correlations", count("lte.tof.correlations"), "count"},
      {"loc.localize_ms", span("loc.localize"), "ms"},
      {"loc.collect_ms", span("loc.collect_gps_tof"), "ms"},
      {"loc.mlat_ms", span("loc.mlat.joint"), "ms"},
      {"loc.tuples", count("loc.tuples.collected"), "count"},
      {"loc.err_m_p50", t.loc_err_m_p50, "m"},
      {"rem.estimate_all_ms", span("rem.bank.estimate_all"), "ms"},
      {"rem.cells_reestimated", reest, "count"},
      {"rem.cells_cached", cached, "count"},
      {"rem.reestimate_frac", ratio(reest, reest + cached), "fraction"},
      {"rem.plan_ms", span("rem.plan_trajectory"), "ms"},
      {"rem.store_hit_frac", ratio(hits, hits + misses), "fraction"},
      {"kernels.mul_conj_elems", count("kernel.mul_conj.elems"), "count"},
      {"kernels.peak_scan_elems", count("kernel.peak_scan.elems"), "count"},
      {"kernels.kmeans_assign_elems", count("kernel.kmeans_assign.elems"), "count"},
      {"kernels.pathloss_elems", count("kernel.pathloss.elems"), "count"},
      {"core.epoch_ms", cepoch, "ms"},
      {"core.localize_ms", span("epoch.localize"), "ms"},
      {"core.measure_and_place_ms", span("epoch.measure_and_place"), "ms"},
      {"core.placement_ms", span("epoch.placement"), "ms"},
      {"core.serve_ms", span("epoch.serve"), "ms"},
      {"core.phase_share", ratio(cphases, cepoch), "fraction"},
      {"pool.dispatches", dispatches, "count"},
      {"pool.inline_runs", inline_runs, "count"},
      {"pool.chunks", chunks, "count"},
      {"pool.chunks_per_dispatch", ratio(chunks, dispatches + inline_runs), "count"},
      {"pool.queue_depth_mean", v.histogram_mean("core.pool.queue_depth"), "count"},
      {"pool.dispatch_us", t.pool_us, "us"},
      {"pool.overhead_est_ms", dispatches * t.pool_us / 1000.0, "ms"},
      {"ckpt.save_ms", t.save_ms, "ms"},
      {"ckpt.restore_ms", t.restore_ms, "ms"},
      {"ckpt.bytes", static_cast<double>(t.ckpt_bytes), "bytes"},
      {"obs.overhead_frac", t.overhead_frac, "fraction"},
  };
}

}  // namespace perfbench

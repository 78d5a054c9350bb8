#include "lte/traffic_plane.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "geo/stats.hpp"
#include "obs/obs.hpp"

namespace skyran::lte {

namespace {

constexpr double kFullBufferBits = 1e12;
constexpr double kEwmaAlpha = 0.01;     ///< PF long-term rate horizon (~100 ms)
constexpr double kBlerHalvingDb = 1.0;  ///< margin that halves the first-tx BLER

// Counter-based randomness: every draw is a pure function of
// (seed, stream, ue, tti), so no generator state is carried between UEs or
// shared between planes served on different threads.
enum Stream : std::uint64_t {
  kStreamBurstInit = 0x1001,
  kStreamBurst = 0x1002,
  kStreamVideo = 0x1003,
  kStreamHarq = 0x1004,
};

double u01(std::uint64_t seed, std::uint64_t stream, std::uint64_t ue,
           std::uint64_t tti) {
  return geo::u01(seed, stream, ue ^ geo::mix64(tti));
}

double cqi_threshold_db(int cqi) {
  expects(cqi >= 1 && cqi <= cqi_table_size(), "cqi_threshold_db: CQI out of range");
  return cqi_table()[cqi - 1].snr_threshold_db;
}

/// MBSFN-capable subframe positions within a 10 ms frame (3GPP: all but the
/// PSS/SSS/PBCH and paging subframes 0, 4, 5, 9).
constexpr int kMbsfnPositions[6] = {1, 2, 3, 6, 7, 8};
/// MBSFN subframes per frame at most (3GPP cap: 6 of 10 subframes).
constexpr int kMaxMbsfnPerFrame = 6;
static_assert(kMaxMbsfnPerFrame <= static_cast<int>(std::size(kMbsfnPositions)));

}  // namespace

void validate(const TrafficSpec& spec) {
  expects(std::isfinite(spec.rate_bps) && spec.rate_bps >= 0.0,
          "TrafficSpec: rate must be finite and >= 0");
  expects(spec.mean_on_ttis >= 1.0 && spec.mean_off_ttis >= 1.0,
          "TrafficSpec: bursty state means must be >= 1 TTI");
  expects(spec.frame_interval_ttis >= 1 && spec.gop_frames >= 1,
          "TrafficSpec: video frame parameters must be >= 1");
}

TrafficPlane::TrafficPlane(TrafficPlaneConfig config) : config_(config) {
  expects(config_.carrier.n_prb > 0, "TrafficPlane: carrier must have PRBs");
  expects(config_.harq_max_retx >= 0, "TrafficPlane: harq_max_retx must be >= 0");
  expects(config_.target_bler >= 0.0 && config_.target_bler <= 1.0,
          "TrafficPlane: target_bler must be in [0,1]");
  expects(config_.multicast_rate_bps >= 0.0,
          "TrafficPlane: multicast_rate_bps must be >= 0");
}

std::size_t TrafficPlane::add_ue(std::uint32_t rnti, double snr_db,
                                 const TrafficSpec& traffic) {
  expects(std::isfinite(snr_db), "TrafficPlane::add_ue: SNR must be finite");
  validate(traffic);

  const std::size_t i = n_ues_++;
  rnti_.push_back(rnti);
  snr_db_.push_back(snr_db);
  snr_offset_db_.push_back(0.0);
  const int cqi = snr_to_cqi(snr_db);
  cqi_.push_back(cqi);
  rate_1prb_.push_back(cqi_efficiency(cqi) * kPrbBandwidthHz * kTtiSeconds *
                       (1.0 - kL1OverheadFraction));

  model_.push_back(static_cast<std::uint8_t>(traffic.model));
  rate_bps_.push_back(traffic.rate_bps);
  p_on_off_.push_back(1.0 / traffic.mean_on_ttis);
  p_off_on_.push_back(1.0 / traffic.mean_off_ttis);
  const double duty =
      traffic.mean_on_ttis / (traffic.mean_on_ttis + traffic.mean_off_ttis);
  burst_on_.push_back(u01(config_.seed, kStreamBurstInit, i, 0) < duty ? 1 : 0);
  frame_interval_.push_back(traffic.frame_interval_ttis);
  gop_frames_.push_back(traffic.gop_frames);
  subscribed_.push_back(traffic.multicast_subscriber ? 1 : 0);

  backlog_bits_.push_back(traffic.model == TrafficModel::kFullBuffer ? kFullBufferBits
                                                                     : 0.0);
  ewma_bps_.push_back(1.0);  // PF floor: avoids divide-by-zero in the metric

  const std::size_t h = static_cast<std::size_t>(kHarqProcesses);
  harq_bits_.resize(harq_bits_.size() + h, 0.0);
  harq_prb_.resize(harq_prb_.size() + h, 0);
  harq_retx_.resize(harq_retx_.size() + h, 0);
  harq_active_.resize(harq_active_.size() + h, 0);

  offered_bits_.push_back(0.0);
  served_bits_.push_back(0.0);
  dropped_bits_.push_back(0.0);
  backlog_sum_bits_.push_back(0.0);
  last_served_tti_.push_back(-1);

  eligible_.push_back(0);
  metric_.push_back(0.0);
  ewma_add_.push_back(0.0);
  last_prb_.push_back(0);
  return i;
}

void TrafficPlane::reserve(std::size_t n_ues) {
  const std::size_t h = n_ues * static_cast<std::size_t>(kHarqProcesses);
  const auto per_ue = [n_ues](auto&... v) { (v.reserve(n_ues), ...); };
  per_ue(rnti_, snr_db_, snr_offset_db_, cqi_, rate_1prb_, model_, rate_bps_, p_on_off_,
         p_off_on_, burst_on_, frame_interval_, gop_frames_, subscribed_, backlog_bits_,
         ewma_bps_, offered_bits_, served_bits_, dropped_bits_, backlog_sum_bits_,
         last_served_tti_, eligible_, metric_, ewma_add_, last_prb_);
  harq_bits_.reserve(h);
  harq_prb_.reserve(h);
  harq_retx_.reserve(h);
  harq_active_.reserve(h);
}

void TrafficPlane::set_snr(std::size_t ue, double snr_db) {
  expects(ue < n_ues_, "TrafficPlane::set_snr: UE index out of range");
  expects(std::isfinite(snr_db), "TrafficPlane::set_snr: SNR must be finite");
  snr_db_[ue] = snr_db;
  const int cqi = snr_to_cqi(snr_db);
  cqi_[ue] = cqi;
  rate_1prb_[ue] = cqi_efficiency(cqi) * kPrbBandwidthHz * kTtiSeconds *
                   (1.0 - kL1OverheadFraction);
}

void TrafficPlane::set_snr_offset_db(std::size_t ue, double offset_db) {
  expects(ue < n_ues_, "TrafficPlane::set_snr_offset_db: UE index out of range");
  expects(std::isfinite(offset_db), "TrafficPlane::set_snr_offset_db: offset must be finite");
  snr_offset_db_[ue] = offset_db;
}

double TrafficPlane::in_flight_bits(std::size_t ue) const {
  expects(ue < n_ues_, "TrafficPlane::in_flight_bits: UE index out of range");
  const std::size_t h = static_cast<std::size_t>(kHarqProcesses);
  double bits = 0.0;
  for (std::size_t p = 0; p < h; ++p)
    if (harq_active_[ue * h + p]) bits += harq_bits_[ue * h + p];
  return bits;
}

bool TrafficPlane::harq_active(std::size_t ue, int process) const {
  expects(ue < n_ues_ && process >= 0 && process < kHarqProcesses,
          "TrafficPlane::harq_active: index out of range");
  return harq_active_[ue * static_cast<std::size_t>(kHarqProcesses) +
                      static_cast<std::size_t>(process)] != 0;
}

int TrafficPlane::harq_retx_count(std::size_t ue, int process) const {
  expects(ue < n_ues_ && process >= 0 && process < kHarqProcesses,
          "TrafficPlane::harq_retx_count: index out of range");
  return harq_retx_[ue * static_cast<std::size_t>(kHarqProcesses) +
                    static_cast<std::size_t>(process)];
}

void TrafficPlane::phase1_arrivals_and_metrics(std::int64_t t) {
  const bool pf = config_.policy == SchedulerPolicy::kProportionalFair;
  const std::size_t h = static_cast<std::size_t>(kHarqProcesses);
  const std::size_t process =
      static_cast<std::size_t>(t % static_cast<std::int64_t>(h));
  for (std::size_t i = 0; i < n_ues_; ++i) {
    switch (static_cast<TrafficModel>(model_[i])) {
      case TrafficModel::kFullBuffer:
        backlog_bits_[i] = kFullBufferBits;
        break;
      case TrafficModel::kCbr: {
        const double bits = rate_bps_[i] * kTtiSeconds;
        backlog_bits_[i] += bits;
        offered_bits_[i] += bits;
        break;
      }
      case TrafficModel::kBurstyOnOff: {
        const double u = u01(config_.seed, kStreamBurst, i,
                             static_cast<std::uint64_t>(t));
        if (burst_on_[i]) {
          const double bits = rate_bps_[i] * kTtiSeconds;
          backlog_bits_[i] += bits;
          offered_bits_[i] += bits;
          if (u < p_on_off_[i]) burst_on_[i] = 0;
        } else if (u < p_off_on_[i]) {
          burst_on_[i] = 1;
        }
        break;
      }
      case TrafficModel::kVideo: {
        // Frames land every frame_interval TTIs, phase-staggered by UE
        // index so 10^5 streams do not all burst on the same TTI. I-frames
        // (one per GOP) carry 2.5x the mean; P-frames shrink to keep the
        // long-run rate at rate_bps. Sizes jitter +-25% deterministically.
        const std::int64_t interval = frame_interval_[i];
        const std::int64_t phase =
            static_cast<std::int64_t>(i) % interval;
        if (t >= phase && (t - phase) % interval == 0) {
          const std::int64_t frame = (t - phase) / interval;
          const double mean_bits = rate_bps_[i] * kTtiSeconds *
                                   static_cast<double>(interval);
          const double gop = static_cast<double>(gop_frames_[i]);
          const bool iframe = frame % gop_frames_[i] == 0;
          const double scale =
              gop > 1.5 ? (iframe ? 2.5 : (gop - 2.5) / (gop - 1.0)) : 1.0;
          const double jitter =
              0.75 + 0.5 * u01(config_.seed, kStreamVideo, i,
                               static_cast<std::uint64_t>(frame));
          const double bits = mean_bits * scale * jitter;
          backlog_bits_[i] += bits;
          offered_bits_[i] += bits;
        }
        break;
      }
    }
    if (harq_active_[i * h + process]) {
      eligible_[i] = 2;  // this TTI's process owes a retransmission
      metric_[i] = 0.0;
    } else if (backlog_bits_[i] > 0.0 && cqi_[i] > 0) {
      eligible_[i] = 1;
      metric_[i] = pf ? rate_1prb_[i] / std::max(1.0, ewma_bps_[i]) : 0.0;
    } else {
      eligible_[i] = 0;
      metric_[i] = 0.0;
    }
  }
}

double TrafficPlane::multicast_subframe_capacity_bits() const {
  int min_cqi = std::numeric_limits<int>::max();
  bool any = false;
  for (std::size_t i = 0; i < n_ues_; ++i) {
    if (!subscribed_[i]) continue;
    any = true;
    min_cqi = std::min(min_cqi, cqi_[i]);
  }
  if (!any || min_cqi <= 0) return 0.0;
  return cqi_efficiency(min_cqi) * kPrbBandwidthHz * kTtiSeconds *
         static_cast<double>(config_.carrier.n_prb) * (1.0 - kL1OverheadFraction);
}

void TrafficPlane::refresh_mbsfn_pattern(std::int64_t t) {
  (void)t;
  mbsfn_capacity_bits_ = multicast_subframe_capacity_bits();
  if (mbsfn_capacity_bits_ <= 0.0) {
    mbsfn_this_frame_ = 0;
    return;
  }
  // Subframes this frame must carry to drain the broadcast backlog plus the
  // frame's own arrivals, capped at the MBSFN maximum.
  const double frame_demand =
      mcast_backlog_bits_ + config_.multicast_rate_bps * kTtiSeconds * 10.0;
  const int needed =
      static_cast<int>(std::ceil(frame_demand / mbsfn_capacity_bits_));
  mbsfn_this_frame_ = std::clamp(needed, 0, kMaxMbsfnPerFrame);
}

void TrafficPlane::phase2_allocate(std::int64_t t) {
  for (const SchedEntry& e : scheduled_) last_prb_[e.ue] = 0;
  scheduled_.clear();
  const int total_prb = config_.carrier.n_prb;
  last_tti_ = {t, 0, total_prb, false};

  if (config_.adaptive_mbsfn) {
    mcast_backlog_bits_ += config_.multicast_rate_bps * kTtiSeconds;
    if (t % 10 == 0) refresh_mbsfn_pattern(t);
    const int pos = static_cast<int>(t % 10);
    for (int s = 0; s < mbsfn_this_frame_; ++s) {
      if (kMbsfnPositions[s] != pos) continue;
      // Multicast subframe: the whole carrier carries the broadcast at the
      // worst subscriber's CQI; unicast (and its HARQ feedback) pauses.
      const double bits = std::min(mbsfn_capacity_bits_, mcast_backlog_bits_);
      mcast_backlog_bits_ -= bits;
      mcast_served_bits_ += bits;
      ++mbsfn_subframes_total_;
      last_tti_.mbsfn = true;
      return;
    }
  }

  const std::size_t h = static_cast<std::size_t>(kHarqProcesses);
  const std::size_t process =
      static_cast<std::size_t>(t % static_cast<std::int64_t>(h));
  int prb_left = total_prb;
  const bool pf = config_.policy == SchedulerPolicy::kProportionalFair;

  // One branch-free pass splits the eligible UEs into pending
  // retransmissions and new-TX candidates, each list in ascending UE order.
  static thread_local std::vector<std::uint32_t> retx_ues;
  static thread_local std::vector<std::uint32_t> new_ues;
  if (retx_ues.size() < n_ues_) {
    retx_ues.resize(n_ues_);
    new_ues.resize(n_ues_);
  }
  std::size_t n_retx = 0;
  std::size_t n_new = 0;
  for (std::size_t i = 0; i < n_ues_; ++i) {
    const std::uint8_t e = eligible_[i];
    retx_ues[n_retx] = static_cast<std::uint32_t>(i);
    new_ues[n_new] = static_cast<std::uint32_t>(i);
    n_retx += e == 2;
    n_new += e == 1;
  }

  // Pending retransmissions first, in UE order: a retx reuses its original
  // grant size or waits for the process's next turn.
  for (std::size_t r = 0; r < n_retx; ++r) {
    const std::uint32_t i = retx_ues[r];
    const int need = std::max<int>(1, harq_prb_[i * h + process]);
    if (need <= prb_left) {
      scheduled_.push_back({i, static_cast<std::uint16_t>(need),
                            static_cast<std::uint8_t>(process), true});
      prb_left -= need;
    }
  }

  int allocated = total_prb - prb_left;
  if (prb_left > 0 && n_new > 0) {
    const std::size_t first_new = scheduled_.size();
    if (pf) {
      struct Cand {
        double metric;
        std::uint32_t ue;
      };
      // "a worse than b" under the total order (metric desc, ue asc).
      const auto worse = [](const Cand& a, const Cand& b) {
        return a.metric < b.metric || (a.metric == b.metric && a.ue > b.ue);
      };
      const auto better = [&](const Cand& a, const Cand& b) { return worse(b, a); };
      // The first K = prb_left candidates, then (if more remain) a bounded
      // heap whose root is the weakest kept one: a candidate costs one
      // compare to reject, and one sift-down to replace the root.
      static thread_local std::vector<Cand> top;
      const std::size_t k = static_cast<std::size_t>(prb_left);
      top.resize(std::min(n_new, k));
      for (std::size_t j = 0; j < top.size(); ++j) top[j] = {metric_[new_ues[j]], new_ues[j]};
      if (n_new <= k) {
        // Few UEs, many PRBs: proportional shares, floor + leftover to the
        // highest metrics (top holds every eligible UE here).
        std::sort(top.begin(), top.end(), better);
        double metric_sum = 0.0;
        for (const Cand& c : top) metric_sum += c.metric;
        int assigned = 0;
        for (const Cand& c : top) {
          const int share = static_cast<int>(
              std::floor(prb_left * c.metric / std::max(1e-300, metric_sum)));
          scheduled_.push_back({c.ue, static_cast<std::uint16_t>(share),
                                static_cast<std::uint8_t>(process), false});
          assigned += share;
        }
        for (std::size_t j = 0; assigned < prb_left; ++j, ++assigned)
          ++scheduled_[first_new + j % top.size()].prb;
      } else {
        // Massive-UE regime: one PRB each to the top K metrics. Phase 3
        // touches only each granted UE's own slots and integer counters, so
        // grant order is not observable and the kept set needs no sort.
        std::make_heap(top.begin(), top.end(), better);
        for (std::size_t j = k; j < n_new; ++j) {
          const Cand c{metric_[new_ues[j]], new_ues[j]};
          if (!worse(top.front(), c)) continue;
          std::size_t pos = 0;
          for (std::size_t child = 1; child < k; child = 2 * pos + 1) {
            if (child + 1 < k && worse(top[child + 1], top[child])) ++child;
            if (!worse(top[child], c)) break;
            top[pos] = top[child];
            pos = child;
          }
          top[pos] = c;
        }
        for (const Cand& c : top)
          scheduled_.push_back({c.ue, 1, static_cast<std::uint8_t>(process), false});
      }
    } else {
      // Round robin: walk from the cursor, wrapping once; stop as soon as
      // one more candidate than the PRB budget is found (enough to know
      // which regime applies).
      static thread_local std::vector<std::uint32_t> rr_list;
      rr_list.clear();
      const std::size_t cap = static_cast<std::size_t>(prb_left) + 1;
      for (std::size_t step = 0; step < n_ues_ && rr_list.size() < cap; ++step) {
        const std::size_t i = (rr_cursor_ + step) % n_ues_;
        if (eligible_[i] == 1) rr_list.push_back(static_cast<std::uint32_t>(i));
      }
      if (rr_list.size() > static_cast<std::size_t>(prb_left)) {
        rr_list.pop_back();  // one PRB each; the probe candidate waits
        for (std::uint32_t ue : rr_list)
          scheduled_.push_back({ue, 1, static_cast<std::uint8_t>(process), false});
        rr_cursor_ = (static_cast<std::size_t>(rr_list.back()) + 1) % n_ues_;
      } else {
        // Everyone fits: even split, remainder rotating with the TTI index
        // so short-run shares even out (mirrors the legacy scheduler).
        const int base = prb_left / static_cast<int>(rr_list.size());
        int leftover = prb_left % static_cast<int>(rr_list.size());
        const std::size_t rot =
            static_cast<std::size_t>(t) % rr_list.size();
        for (std::size_t j = 0; j < rr_list.size(); ++j)
          scheduled_.push_back({rr_list[j], static_cast<std::uint16_t>(base),
                                static_cast<std::uint8_t>(process), false});
        for (std::size_t j = 0; leftover > 0; ++j, --leftover)
          ++scheduled_[first_new + (rot + j) % rr_list.size()].prb;
        ++rr_cursor_;
      }
    }
    for (std::size_t j = first_new; j < scheduled_.size(); ++j)
      allocated += scheduled_[j].prb;
  }
  last_tti_.prb_allocated = allocated;
  for (const SchedEntry& e : scheduled_) last_prb_[e.ue] = e.prb;
}

void TrafficPlane::phase3_transmit(std::int64_t t) {
  const std::size_t h = static_cast<std::size_t>(kHarqProcesses);
  const auto p_fail = [&](double margin_db) {
    const double p = config_.target_bler * std::exp2(-margin_db / kBlerHalvingDb);
    return std::clamp(p, 0.0, 1.0);
  };

  for (const SchedEntry& e : scheduled_) {
    const std::size_t i = e.ue;
    const int cqi = cqi_[i];
    const double u =
        u01(config_.seed, kStreamHarq, i, static_cast<std::uint64_t>(t));
    ++scheduled_ue_ttis_;

    if (e.is_retx) {
      const std::size_t slot = i * h + e.process;
      const int retx_no = harq_retx_[slot] + 1;
      // Chase combining: every flown copy adds combining gain. The block is
      // re-decoded against the current CQI's threshold (the reported SNR is
      // assumed quasi-static over a HARQ round trip). A UE that fell out of
      // range (CQI 0) since the first copy has no threshold: the copy fails
      // its decode and still counts toward harq_max_retx.
      ++harq_retx_tx_;
      const bool decoded =
          cqi > 0 && u >= p_fail(snr_db_[i] + snr_offset_db_[i] +
                                 config_.harq_combining_gain_db * retx_no -
                                 cqi_threshold_db(cqi));
      if (decoded) {
        served_bits_[i] += harq_bits_[slot];
        ewma_add_[i] += harq_bits_[slot];
        last_served_tti_[i] = t;
        harq_active_[slot] = 0;
        harq_retx_[slot] = 0;
      } else if (retx_no >= config_.harq_max_retx) {
        dropped_bits_[i] += harq_bits_[slot];
        harq_active_[slot] = 0;
        harq_retx_[slot] = 0;
        ++harq_drops_;
      } else {
        harq_retx_[slot] = static_cast<std::uint8_t>(retx_no);
      }
      continue;
    }

    const bool full_buffer =
        static_cast<TrafficModel>(model_[i]) == TrafficModel::kFullBuffer;
    const double cap = rate_1prb_[i] * e.prb;
    const double tb = full_buffer ? cap : std::min(cap, backlog_bits_[i]);
    if (tb <= 0.0) continue;
    if (!full_buffer) backlog_bits_[i] -= tb;
    ++harq_first_tx_;
    // New transmissions are eligible only at CQI >= 1.
    const double margin = snr_db_[i] + snr_offset_db_[i] - cqi_threshold_db(cqi);
    if (u >= p_fail(margin)) {
      served_bits_[i] += tb;
      ewma_add_[i] += tb;
      last_served_tti_[i] = t;
    } else if (config_.harq_max_retx > 0) {
      const std::size_t slot = i * h + e.process;
      harq_bits_[slot] = tb;
      harq_prb_[slot] = e.prb;
      harq_retx_[slot] = 0;
      harq_active_[slot] = 1;
    } else {
      dropped_bits_[i] += tb;
      ++harq_drops_;
    }
  }
}

void TrafficPlane::phase4_decay() {
  const double alpha = kEwmaAlpha;
  for (std::size_t i = 0; i < n_ues_; ++i) {
    ewma_bps_[i] = (1.0 - alpha) * ewma_bps_[i] +
                   alpha * (ewma_add_[i] / kTtiSeconds);
    ewma_add_[i] = 0.0;
    if (static_cast<TrafficModel>(model_[i]) != TrafficModel::kFullBuffer)
      backlog_sum_bits_[i] += backlog_bits_[i];
  }
}

void TrafficPlane::run_ttis(int n) {
  expects(n >= 0, "TrafficPlane::run_ttis: TTI count must be >= 0");
  const std::uint64_t sched0 = scheduled_ue_ttis_;
  const std::uint64_t retx0 = harq_retx_tx_;
  const std::uint64_t drops0 = harq_drops_;
  const int mbsfn0 = mbsfn_subframes_total_;
  for (int k = 0; k < n; ++k) {
    const std::int64_t t = tti_++;
    phase1_arrivals_and_metrics(t);
    phase2_allocate(t);
    if (!last_tti_.mbsfn) phase3_transmit(t);
    phase4_decay();
  }
  SKYRAN_COUNTER_ADD("traffic.ttis", n);
  SKYRAN_COUNTER_ADD("traffic.sched.ue_ttis", scheduled_ue_ttis_ - sched0);
  SKYRAN_COUNTER_ADD("traffic.harq.retx", harq_retx_tx_ - retx0);
  SKYRAN_COUNTER_ADD("traffic.harq.drops", harq_drops_ - drops0);
  SKYRAN_COUNTER_ADD("traffic.mbsfn.subframes",
                     static_cast<std::uint64_t>(mbsfn_subframes_total_ - mbsfn0));
}

std::uint64_t TrafficPlane::state_hash() const {
  geo::Fnv1a h;
  // Slabs are hashed without a length prefix.
  const auto slab = [&h](const auto& v) { h.bytes(v.data(), v.size() * sizeof(v[0])); };
  h.pod(tti_);
  slab(backlog_bits_);
  slab(ewma_bps_);
  slab(burst_on_);
  slab(harq_bits_);
  slab(harq_prb_);
  slab(harq_retx_);
  slab(harq_active_);
  slab(offered_bits_);
  slab(served_bits_);
  slab(dropped_bits_);
  slab(backlog_sum_bits_);
  slab(last_served_tti_);
  h.pod(rr_cursor_);
  h.pod(mcast_backlog_bits_);
  h.pod(mcast_served_bits_);
  h.pod(mbsfn_this_frame_);
  h.pod(mbsfn_subframes_total_);
  h.pod(scheduled_ue_ttis_);
  h.pod(harq_first_tx_);
  h.pod(harq_retx_tx_);
  h.pod(harq_drops_);
  return h.value();
}

TrafficPlaneReport TrafficPlane::report() const {
  TrafficPlaneReport r;
  r.ttis = tti_;
  r.ues = n_ues_;
  r.scheduled_ue_ttis = scheduled_ue_ttis_;
  r.harq_first_tx = harq_first_tx_;
  r.harq_retx = harq_retx_tx_;
  r.harq_drops = harq_drops_;
  r.harq_residual_bler =
      harq_first_tx_ > 0
          ? static_cast<double>(harq_drops_) / static_cast<double>(harq_first_tx_)
          : 0.0;
  r.mbsfn_subframes = mbsfn_subframes_total_;
  r.multicast_served_bits = mcast_served_bits_;
  r.multicast_backlog_bits = mcast_backlog_bits_;
  if (n_ues_ == 0 || tti_ == 0) return r;

  const double duration_s = static_cast<double>(tti_) * kTtiSeconds;
  std::vector<double> throughput(n_ues_);
  std::vector<double> delay(n_ues_, 0.0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n_ues_; ++i) {
    r.offered_bits += offered_bits_[i];
    r.served_bits += served_bits_[i];
    r.dropped_bits += dropped_bits_[i];
    throughput[i] = served_bits_[i] / duration_s;
    sum += throughput[i];
    sum_sq += throughput[i] * throughput[i];
    // Little's law: mean delay = mean backlog / arrival rate.
    if (static_cast<TrafficModel>(model_[i]) != TrafficModel::kFullBuffer &&
        rate_bps_[i] > 0.0)
      delay[i] = 1e3 * (backlog_sum_bits_[i] / static_cast<double>(tti_)) /
                 rate_bps_[i];
  }
  r.aggregate_throughput_bps = sum;
  r.fairness_jain =
      sum_sq > 0.0 ? (sum * sum) / (static_cast<double>(n_ues_) * sum_sq) : 1.0;
  std::sort(throughput.begin(), throughput.end());
  std::sort(delay.begin(), delay.end());
  r.p50_throughput_bps = geo::percentile_sorted(throughput, 0.50);
  r.p90_throughput_bps = geo::percentile_sorted(throughput, 0.90);
  r.p99_throughput_bps = geo::percentile_sorted(throughput, 0.99);
  r.p50_delay_ms = geo::percentile_sorted(delay, 0.50);
  r.p90_delay_ms = geo::percentile_sorted(delay, 0.90);
  r.p99_delay_ms = geo::percentile_sorted(delay, 0.99);
  return r;
}

}  // namespace skyran::lte

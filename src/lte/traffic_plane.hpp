// Batched per-TTI downlink traffic plane: the repo's one MAC. All per-UE
// state lives in flat structure-of-arrays slabs (rnti/snr/backlog/ewma/
// HARQ), so one TTI is a handful of linear passes instead of 10^5
// small-object updates:
//
//   phase 1 (O(N))       traffic arrivals, eligibility, PF metric
//   phase 2 (O(N))       PRB allocation: one branch-free pass splits the
//                        eligible UEs into retransmissions and new-TX
//                        candidates; retransmissions are granted first,
//                        then round-robin, or proportional-fair top-K over
//                        the PRBs left (a bounded heap: one compare rejects
//                        a candidate, one sift-down keeps it)
//   phase 3 (O(n_prb))   transmission outcomes, HARQ state machine
//   phase 4 (O(N))       EWMA decay + queue statistics
//
// A plane runs serially on its caller's thread; the parallelism is one
// level up (fleet::Fleet serves its cells in one parallel loop, one plane
// per cell). All randomness is counter-based (hashed from (seed, stream,
// ue, tti), never a shared generator), so a plane's output does not depend
// on which thread serves it, and serial and N-worker runs are bit-for-bit
// identical for any worker count.
//
// Modeled MAC features:
//  - traffic models per UE: full-buffer, CBR, bursty on/off, video (GOP
//    frame pattern with jittered frame sizes);
//  - an 8-process stop-and-wait HARQ state machine (synchronous: process
//    id = tti % 8) with chase-combining gain per retransmission and
//    max-retx drop accounting;
//  - an adaptive multicast/unicast subframe split in the MBSFN style: per
//    10 ms frame, up to 6 subframes flip to multicast when broadcast
//    backlog demands it, sized by the worst subscriber's CQI.
#pragma once

#include <cstdint>
#include <vector>

#include "lte/amc.hpp"
#include "lte/sampling.hpp"

namespace skyran::lte {

enum class SchedulerPolicy {
  kRoundRobin,        ///< equal PRB share regardless of channel
  kProportionalFair,  ///< weight by instantaneous rate / long-term average
};

/// Per-UE downlink traffic model.
enum class TrafficModel : std::uint8_t {
  kFullBuffer,  ///< always backlogged
  kCbr,         ///< constant-bit-rate arrivals, exact per TTI
  kBurstyOnOff, ///< two-state Markov on/off; arrives at rate_bps while on
  kVideo,       ///< periodic frames, I-frames every GOP, jittered sizes
};

struct TrafficSpec {
  TrafficModel model = TrafficModel::kFullBuffer;
  double rate_bps = 2e6;        ///< CBR rate / on-state rate / video mean rate
  double mean_on_ttis = 200.0;  ///< bursty: mean on-burst length (TTIs)
  double mean_off_ttis = 800.0; ///< bursty: mean silence length (TTIs)
  int frame_interval_ttis = 33; ///< video: ~30 fps at 1 ms TTIs
  int gop_frames = 12;          ///< video: I-frame period in frames
  bool multicast_subscriber = false;  ///< receives the MBSFN broadcast
};

/// Throws ContractViolation unless `spec` can run on a TrafficPlane: a
/// finite rate >= 0, bursty state means >= 1 TTI, and video frame interval
/// and GOP length >= 1. Holders of a spec (fleet::Fleet) check it when they
/// store it, so a bad spec never reaches a plane mid-epoch.
void validate(const TrafficSpec& spec);

/// HARQ: synchronous stop-and-wait over this many parallel processes per UE.
inline constexpr int kHarqProcesses = 8;

struct TrafficPlaneConfig {
  BandwidthConfig carrier = bandwidth_config(10.0);
  SchedulerPolicy policy = SchedulerPolicy::kProportionalFair;
  std::uint64_t seed = 1;

  int harq_max_retx = 4;                ///< retransmissions before drop
  double harq_combining_gain_db = 3.0;  ///< chase-combining SNR gain / retx
  /// First-transmission BLER when the channel sits exactly on the chosen
  /// CQI's switching threshold; halves per dB of margin.
  double target_bler = 0.1;

  // Adaptive multicast/unicast subframe split (MBSFN style).
  bool adaptive_mbsfn = false;
  double multicast_rate_bps = 0.0;  ///< offered broadcast load
};

/// Aggregate outcome of a run_ttis window. Every field is a deterministic
/// function of (config, UE population, TTI count) — bit-identical across
/// worker counts.
struct TrafficPlaneReport {
  std::int64_t ttis = 0;
  std::size_t ues = 0;
  std::uint64_t scheduled_ue_ttis = 0;  ///< (UE, TTI) pairs given PRBs

  double offered_bits = 0.0;  ///< arrivals (full-buffer UEs excluded)
  double served_bits = 0.0;   ///< delivered past HARQ
  double dropped_bits = 0.0;  ///< lost to max-retx drops
  double aggregate_throughput_bps = 0.0;
  double fairness_jain = 1.0;  ///< Jain's index over per-UE throughput

  // Percentiles over per-UE served throughput / mean queue delay.
  double p50_throughput_bps = 0.0;
  double p90_throughput_bps = 0.0;
  double p99_throughput_bps = 0.0;
  double p50_delay_ms = 0.0;
  double p90_delay_ms = 0.0;
  double p99_delay_ms = 0.0;

  std::uint64_t harq_first_tx = 0;  ///< new transport blocks transmitted
  std::uint64_t harq_retx = 0;      ///< retransmissions flown
  std::uint64_t harq_drops = 0;     ///< blocks dropped at max retx
  double harq_residual_bler = 0.0;  ///< drops / first transmissions

  int mbsfn_subframes = 0;  ///< TTIs spent on multicast
  double multicast_served_bits = 0.0;
  double multicast_backlog_bits = 0.0;
};

/// Per-TTI debug snapshot (cheap; for property tests and invariant checks).
struct TtiDebug {
  std::int64_t tti = -1;
  int prb_allocated = 0;  ///< unicast PRBs granted this TTI
  int prb_total = 0;      ///< carrier PRBs
  bool mbsfn = false;     ///< this TTI was a multicast subframe
};

class TrafficPlane {
 public:
  explicit TrafficPlane(TrafficPlaneConfig config);

  /// Register a UE. `snr_db` is the reported (CQI-loop) channel the
  /// scheduler works with; update it via set_snr. Returns the UE index.
  std::size_t add_ue(std::uint32_t rnti, double snr_db, const TrafficSpec& traffic);

  /// Size every per-UE slab for `n_ues` UEs in total, so that many add_ue
  /// calls allocate once per slab.
  void reserve(std::size_t n_ues);

  /// Update a UE's reported SNR (a fresh CQI report).
  void set_snr(std::size_t ue, double snr_db);

  /// Offset between a UE's true channel and what the scheduler believes, dB
  /// (negative = the channel sagged below the CQI reports, e.g. a
  /// sim::FaultInjector SNR-sag window or fading since the last report).
  /// Affects transmission outcomes only, never scheduling decisions.
  void set_snr_offset_db(std::size_t ue, double offset_db);

  /// Advance `n` TTIs (1 ms each), serially on the caller's thread.
  void run_ttis(int n);

  std::size_t ue_count() const { return n_ues_; }
  std::int64_t ttis_run() const { return tti_; }
  const TrafficPlaneConfig& config() const { return config_; }
  const TtiDebug& last_tti() const { return last_tti_; }
  /// Unicast PRBs granted to each UE in the most recent TTI.
  const std::vector<std::uint16_t>& last_tti_prbs() const { return last_prb_; }

  // Per-UE accounting (tests and report assembly).
  double backlog_bits(std::size_t ue) const { return backlog_bits_[ue]; }
  double offered_bits(std::size_t ue) const { return offered_bits_[ue]; }
  double served_bits(std::size_t ue) const { return served_bits_[ue]; }
  double dropped_bits(std::size_t ue) const { return dropped_bits_[ue]; }
  double average_rate_bps(std::size_t ue) const { return ewma_bps_[ue]; }
  /// Bits sitting in active HARQ processes (in flight, neither served nor
  /// dropped nor queued).
  double in_flight_bits(std::size_t ue) const;
  std::int64_t last_served_tti(std::size_t ue) const { return last_served_tti_[ue]; }

  // HARQ process introspection (tests).
  bool harq_active(std::size_t ue, int process) const;
  int harq_retx_count(std::size_t ue, int process) const;

  /// FNV-1a over the full mutable state (backlogs, EWMAs, HARQ slabs,
  /// counters): two runs are bit-identical iff their hashes match.
  std::uint64_t state_hash() const;

  /// Aggregate report over everything run so far.
  TrafficPlaneReport report() const;

 private:
  struct SchedEntry {
    std::uint32_t ue = 0;
    std::uint16_t prb = 0;
    std::uint8_t process = 0;
    bool is_retx = false;
  };

  void phase1_arrivals_and_metrics(std::int64_t t);
  void phase2_allocate(std::int64_t t);
  void phase3_transmit(std::int64_t t);
  void phase4_decay();
  void refresh_mbsfn_pattern(std::int64_t t);
  double multicast_subframe_capacity_bits() const;

  TrafficPlaneConfig config_;
  std::size_t n_ues_ = 0;
  std::int64_t tti_ = 0;

  // Identity + channel slabs.
  std::vector<std::uint32_t> rnti_;
  std::vector<double> snr_db_;
  std::vector<double> snr_offset_db_;  ///< true minus reported; not hashed
  std::vector<int> cqi_;             ///< cached snr_to_cqi(snr_db_)
  std::vector<double> rate_1prb_;    ///< cached bits per PRB per TTI at cqi_

  // Traffic model slabs.
  std::vector<std::uint8_t> model_;
  std::vector<double> rate_bps_;
  std::vector<double> p_on_off_;     ///< bursty: P(on -> off) per TTI
  std::vector<double> p_off_on_;     ///< bursty: P(off -> on) per TTI
  std::vector<std::uint8_t> burst_on_;
  std::vector<std::int32_t> frame_interval_;
  std::vector<std::int32_t> gop_frames_;
  std::vector<std::uint8_t> subscribed_;

  // Queue + PF slabs.
  std::vector<double> backlog_bits_;
  std::vector<double> ewma_bps_;

  // HARQ slabs, n_ues x kHarqProcesses flattened.
  std::vector<double> harq_bits_;
  std::vector<std::uint16_t> harq_prb_;
  std::vector<std::uint8_t> harq_retx_;
  std::vector<std::uint8_t> harq_active_;

  // Per-UE accounting.
  std::vector<double> offered_bits_;
  std::vector<double> served_bits_;
  std::vector<double> dropped_bits_;
  std::vector<double> backlog_sum_bits_;  ///< Little's-law integral
  std::vector<std::int64_t> last_served_tti_;

  // Per-TTI scratch (phase 1 -> phase 2).
  std::vector<std::uint8_t> eligible_;  ///< 0 none, 1 new TX, 2 retx pending
  std::vector<double> metric_;
  std::vector<double> ewma_add_;        ///< delivered bits this TTI (phase 3 -> 4)
  std::vector<SchedEntry> scheduled_;
  std::vector<std::uint16_t> last_prb_;
  TtiDebug last_tti_;
  std::size_t rr_cursor_ = 0;

  // Multicast/unicast split state.
  double mcast_backlog_bits_ = 0.0;
  double mcast_served_bits_ = 0.0;
  int mbsfn_this_frame_ = 0;   ///< subframes flipped to multicast this frame
  double mbsfn_capacity_bits_ = 0.0;  ///< per-subframe, from worst subscriber
  int mbsfn_subframes_total_ = 0;

  // Aggregate counters.
  std::uint64_t scheduled_ue_ttis_ = 0;
  std::uint64_t harq_first_tx_ = 0;
  std::uint64_t harq_retx_tx_ = 0;
  std::uint64_t harq_drops_ = 0;
};

}  // namespace skyran::lte

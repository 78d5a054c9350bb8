// The benchmark's three closed-loop workloads. Each is built from the
// benchmark seed (configs, deployments, mobility streams) and driven one
// step at a time by the pass runner in main.cpp, which times setup() and
// every step() from outside the program. A step is one Campaign::run_hour
// or one run_epoch plus that step's checkpoint save, as a crash-safe run
// pays it; feed() and observe() carry inputs in and outcomes out and are
// not timed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// Outcome of one pass, read after its last step. Rates and fractions are
/// defined identically on every workload (see README.md).
struct Quality {
  double availability = 0.0;      ///< UE-step samples at/above the service SINR
  double served_gbit = 0.0;       ///< traffic delivered over the pass
  double served_mbps_mean = 0.0;  ///< mean per-UE rate
  double loc_err_m_p50 = 0.0;     ///< median localization error (paper_loop only)
  std::uint64_t handovers = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int steps() const = 0;
  /// Construct the program objects for a fresh pass on `lanes` pool lanes.
  virtual void setup(int lanes) = 0;
  /// Hand the inputs of step `i` to the program (untimed).
  virtual void feed(int /*i*/) {}
  /// Run step `i` and its checkpoint save; returns the step's digest.
  virtual std::uint64_t step(int i) = 0;
  /// Fold the outcome of step `i` into the pass's quality tally (untimed).
  virtual void observe(int /*i*/) {}
  /// Digest over the whole pass (compared against recorded references).
  virtual std::uint64_t final_digest() const = 0;
  virtual Quality quality() const = 0;

  /// Milliseconds spent in checkpoint saves during the current pass, and
  /// the size of the last checkpoint.
  double save_ms() const { return save_ms_; }
  std::size_t ckpt_bytes() const { return ckpt_.size(); }

  /// Restore the last checkpoint into a freshly built object and report
  /// whether it reproduces the live object's state hash. `restore_ms`
  /// receives the time of the restore call alone.
  virtual bool restore_matches(double& restore_ms) const = 0;

 protected:
  double save_ms_ = 0.0;
  std::string ckpt_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench

// Crash points: named process-kill hooks for the kill-and-resume suite.
// The epoch state machine and the checkpoint writer call
// `sim::crash_point("name")` at their phase boundaries; a disarmed hook is
// one branch on a bool. When the SKYRAN_CRASH_AT environment variable names
// a point (SKYRAN_CRASH_HIT=<n>, default 1), the n-th visit to it raises
// SIGKILL on the process — no destructors, no stream flushes, no atexit —
// which is exactly the failure the checkpoint subsystem must survive.
//
// Known points (see docs/ARCHITECTURE.md, "Checkpoint & recovery"):
//   epoch.localize / epoch.estimate / epoch.place / epoch.serve
//     after the matching run_epoch phase completes;
//   epoch.steer      end of a fleet::Fleet epoch, after the steering step;
//   hour.tick        end of a scenario::Campaign hour, after the hour's
//                    report row is appended;
//   ckpt.mid_write   halfway through writing a checkpoint's temp file;
//   ckpt.pre_rename  temp file complete + fsynced, before the atomic rename.
#pragma once

namespace skyran::sim {

/// Phase-boundary hook. SIGKILLs the process when `name` is the armed crash
/// point and this is its `hit`-th visit; otherwise a cheap no-op.
void crash_point(const char* name);

}  // namespace skyran::sim

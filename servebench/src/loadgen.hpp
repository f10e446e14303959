#pragma once
// Load generators for the serving benchmark: a closed loop (one blocking
// ScanClient per thread) for capacity, and a single-threaded open loop
// on a seeded Poisson schedule for latency. Both check every response
// against the verdict oracle.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "mel/net/frame.hpp"
#include "mel/net/server.hpp"
#include "workloads.hpp"

namespace servebench {

/// What every phase needs: the workload, its oracle and the live server.
struct Target {
  const Workload* workload = nullptr;
  const std::vector<mel::net::WireVerdict>* oracle = nullptr;
  mel::net::MelServer* server = nullptr;
};

/// Marks pool indices a phase sent (for the repeat-share measurement).
struct PoolUse {
  std::uint64_t requests = 0;
  std::vector<bool> seen;

  void merge(const PoolUse& other);
  [[nodiscard]] std::size_t distinct() const;
};

struct ClosedLoopResult {
  Outcomes outcomes;
  /// Oracle-checked verdicts per second in each timing window.
  std::vector<double> window_rps;
  /// Verdicts that passed the oracle, over the whole timed span.
  std::uint64_t timed_correct = 0;
  double timed_seconds = 0.0;
  std::uint64_t calibrations = 0;
  PoolUse use;

  /// Appends another segment's windows and adds its counts.
  void merge(const ClosedLoopResult& other);
};

/// `clients` threads, one connection each, back to back for `seconds`
/// after `warmup_seconds` of untimed traffic; the timed span is split
/// into `windows` equal windows.
[[nodiscard]] ClosedLoopResult run_closed_loop(const Target& target,
                                               std::size_t clients,
                                               double warmup_seconds,
                                               double seconds,
                                               std::size_t windows,
                                               std::uint64_t seed);

struct OpenLoopResult {
  Outcomes outcomes;
  /// Per timing window: latency percentiles from the scheduled send.
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
  std::vector<double> window_p99_us;
  std::uint64_t timed_samples = 0;
  /// How late the generator sent, against the schedule.
  std::vector<double> lag_us;
  double offered_rps = 0.0;
  std::uint64_t calibrations = 0;
  PoolUse use;

  /// Appends another segment's windows and adds its counts.
  void merge(const OpenLoopResult& other);
};

/// One thread, `connections` sockets, Poisson arrivals at the
/// workload's open_rate_rps for `warmup_seconds` (untimed) plus
/// `seconds`, split into `windows` timing windows by scheduled time.
[[nodiscard]] OpenLoopResult run_open_loop(const Target& target,
                                           std::size_t connections,
                                           double warmup_seconds,
                                           double seconds,
                                           std::size_t windows,
                                           std::uint64_t seed);

/// Applies calibration generation `generation` (see recalibration_tau)
/// to the default tenant on every shard.
[[nodiscard]] mel::util::Status apply_recalibration(
    mel::net::MelServer& server, std::uint64_t generation);

}  // namespace servebench

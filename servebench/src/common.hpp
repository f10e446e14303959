#pragma once
// Small helpers shared by the serving benchmark's translation units.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double us_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

[[nodiscard]] inline double ns_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
/// Takes its sample by value: it sorts a copy.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// CPU placement: with at least 4 CPUs online the server's threads run
/// on the lower half and the load generators on the upper half, so the
/// generators never take a shard's CPU. Threads inherit the affinity of
/// the thread that creates them, so pin before MelServer::start().
enum class CpuSide { kServer, kGenerator };

/// Pins the calling thread to its side's CPUs; a no-op below 4 CPUs.
inline void pin_current_thread(CpuSide side) {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (online < 4) return;
  const long half = online / 2;
  ::cpu_set_t set;
  CPU_ZERO(&set);
  const long first = side == CpuSide::kServer ? 0 : half;
  const long last = side == CpuSide::kServer ? half : online;
  for (long cpu = first; cpu < last; ++cpu) CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

/// Request outcomes as the verdict oracle classifies them.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;    ///< Verdict bit-identical to the oracle.
  std::uint64_t wrong = 0;      ///< Verdict that differs from the oracle.
  std::uint64_t refused = 0;    ///< Typed error frame from the server.
  std::uint64_t transport = 0;  ///< Socket or framing failure.

  [[nodiscard]] std::uint64_t failed() const {
    return wrong + refused + transport;
  }
  Outcomes& operator+=(const Outcomes& other) {
    attempted += other.attempted;
    correct += other.correct;
    wrong += other.wrong;
    refused += other.refused;
    transport += other.transport;
    return *this;
  }
};

}  // namespace servebench

#pragma once
// The traced phase: one connection sends the workload's requests one at
// a time, and around the same bytes the benchmark times the public entry
// point of each layer in process (net, super, persist, service, core,
// exec). Spans are kept in memory and reduced to medians at the end.

#include <cstdint>

#include "common.hpp"
#include "loadgen.hpp"

namespace servebench {

struct LayerReport {
  Outcomes outcomes;
  std::uint64_t samples = 0;  ///< Traced requests.

  // Wire round trips, p50 (us): the traced loop, and the same loop with
  // no in-process work beside it (the tracing-overhead reference).
  double wire_rtt_us = 0.0;
  double untraced_wire_rtt_us = 0.0;
  /// 1 - traced / untraced single-connection throughput.
  double overhead_share = 0.0;

  // net
  double ping_rtt_us = 0.0;
  double frame_encode_ns = 0.0;  ///< encode_scan_request + encode_verdict.
  double frame_decode_ns = 0.0;  ///< FrameDecoder feed/next/release + body.
  // super
  double fingerprint_ns = 0.0;
  double quarantine_probe_ns = 0.0;
  // persist
  double cache_lookup_ns = 0.0;
  // core
  double estimate_ns = 0.0;
  double text_check_ns = 0.0;
  // exec (the served engine, rules and early-exit threshold)
  double mel_us = 0.0;
  double insns_per_req = 0.0;
  double ns_per_insn = 0.0;
  double early_exit_share = 0.0;
  // service
  double scan_us = 0.0;
  double gate_ns = 0.0;  ///< ScanService::scan minus MelDetector::scan.
  double apply_calibration_us = 0.0;
  /// Share of cached payloads that still answer with the old calibration
  /// after an alpha change (0 when the workload runs without a cache).
  double stale_hit_share = 0.0;
  std::uint64_t stale_probed = 0;
};

/// Runs the traced phase for `seconds` on `target`'s live server.
[[nodiscard]] LayerReport run_traced(const Target& target, double seconds,
                                     std::uint64_t seed);

}  // namespace servebench

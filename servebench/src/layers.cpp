#include "layers.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "mel/core/parameter_estimation.hpp"
#include "mel/exec/mel.hpp"
#include "mel/net/client.hpp"
#include "mel/persist/verdict_cache.hpp"
#include "mel/super/quarantine.hpp"
#include "mel/util/bytes.hpp"

namespace servebench {

namespace net = mel::net;
namespace util = mel::util;

namespace {

/// Payloads the stale-cache probe re-sends after an alpha change.
constexpr std::size_t kStaleProbePayloads = 64;
/// Calibration writes timed for service.apply_calibration_us.
constexpr std::size_t kCalibrationSamples = 101;

/// Times one call; returns nanoseconds.
template <typename Fn>
double time_ns(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ns_between(start, Clock::now());
}

util::StatusOr<mel::service::ScanService> make_service(
    const mel::service::ServiceConfig& base,
    std::shared_ptr<mel::persist::VerdictCache> cache) {
  mel::service::ServiceConfig config = base;
  config.verdict_cache = std::move(cache);
  return mel::service::ScanService::create(std::move(config));
}

/// The per-server-shard cache slice MelServer builds for the workload
/// (same capacity split, same internal shard count).
std::shared_ptr<mel::persist::VerdictCache> make_cache(
    const WorkloadSpec& spec, std::size_t pool_size) {
  mel::persist::VerdictCacheConfig config;
  config.shards = 4;
  config.capacity = spec.cache_capacity > 0
                        ? std::max<std::size_t>(config.shards,
                                                spec.cache_capacity / kShards)
                        : std::max<std::size_t>(config.shards, pool_size * 4);
  auto cache = mel::persist::VerdictCache::create(config);
  return cache.is_ok() ? std::move(cache).take() : nullptr;
}

struct Spans {
  std::vector<double> wire_us, untraced_wire_us, ping_us;
  std::vector<double> encode_ns, decode_ns;
  std::vector<double> fingerprint_ns, quarantine_ns, lookup_ns;
  std::vector<double> estimate_ns, text_ns;
  std::vector<double> mel_us, insns, ns_per_insn;
  std::vector<double> scan_us, gate_ns;
  std::uint64_t early_exits = 0;
};

}  // namespace

LayerReport run_traced(const Target& target, double seconds,
                       std::uint64_t seed) {
  const Workload& workload = *target.workload;
  const WorkloadSpec& spec = *workload.spec;
  const mel::service::ServiceConfig& service_config =
      target.server->config().service;
  LayerReport report;

  net::ClientConfig client_config;
  client_config.port = target.server->port();
  auto connected = net::ScanClient::connect(std::move(client_config));
  if (!connected.is_ok()) {
    report.outcomes.attempted = 1;
    report.outcomes.transport = 1;
    return report;
  }
  net::ScanClient client = std::move(connected).take();

  // In-process replicas of what a shard runs, built from the same config.
  auto served = make_service(service_config,
                             spec.cache_capacity > 0
                                 ? make_cache(spec, workload.pool.size())
                                 : nullptr);
  auto uncached = make_service(service_config, nullptr);
  auto lookup_cache = make_cache(spec, workload.pool.size());
  if (!served.is_ok() || !uncached.is_ok() || lookup_cache == nullptr) {
    report.outcomes.attempted = 1;
    report.outcomes.transport = 1;
    return report;
  }
  const mel::service::ScanService& served_service = served.value();
  const mel::service::ScanService& uncached_service = uncached.value();
  const std::shared_ptr<const mel::core::MelDetector> detector =
      uncached_service.detector();
  const mel::core::DetectorConfig& detector_config = detector->config();
  const mel::core::CharFrequencyTable& preset =
      *detector_config.preset_frequencies;
  const mel::super::Quarantine quarantine(mel::super::QuarantineConfig{});
  mel::exec::MelScratch engine_scratch;
  mel::exec::MelScratch served_scratch;
  mel::exec::MelScratch uncached_scratch;
  mel::exec::MelScratch detector_scratch;
  net::FrameDecoder decoder;

  Spans spans;
  Sequence sequence(spec, workload.pool.size(), seed * 1000003 + 7);
  auto wire_scan = [&](std::size_t index, std::vector<double>& into) {
    const auto start = Clock::now();
    const auto answer = client.scan(workload.pool[index]);
    into.push_back(us_between(start, Clock::now()));
    report.outcomes.attempted += 1;
    if (!answer.is_ok()) {
      (client.connected() ? report.outcomes.refused
                          : report.outcomes.transport) += 1;
    } else if (same_verdict(answer.value(), (*target.oracle)[index])) {
      report.outcomes.correct += 1;
    } else {
      report.outcomes.wrong += 1;
    }
    return answer;
  };

  // Untraced reference: the single-connection loop with nothing beside
  // it.
  const auto untraced_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * 0.15));
  double untraced_total_us = 0.0;
  while (Clock::now() < untraced_end && client.connected()) {
    (void)wire_scan(sequence.next(), spans.untraced_wire_us);
    untraced_total_us += spans.untraced_wire_us.back();
  }

  // Traced wire pass: each request's round trip and a ping beside it,
  // back to back, so the server sees the same cadence as untraced.
  const auto wire_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * 0.25));
  double traced_total_us = 0.0;
  std::vector<std::size_t> traced_indices;
  std::vector<net::WireVerdict> traced_verdicts;
  while (Clock::now() < wire_end && client.connected()) {
    const std::size_t index = sequence.next();
    const auto answer = wire_scan(index, spans.wire_us);
    traced_total_us += spans.wire_us.back();
    const auto ping_start = Clock::now();
    if (!client.ping().is_ok()) break;
    spans.ping_us.push_back(us_between(ping_start, Clock::now()));
    traced_indices.push_back(index);
    traced_verdicts.push_back(answer.is_ok() ? answer.value()
                                             : net::WireVerdict{});
  }

  // In-process pass over the same requests: the public entry point of
  // each layer, timed around the same bytes.
  const auto layers_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * 0.6));
  std::uint64_t request_id = 1;
  for (std::size_t n = 0;
       n < traced_indices.size() && Clock::now() < layers_end; ++n) {
    const util::ByteBuffer& payload = workload.pool[traced_indices[n]];
    const net::WireVerdict& verdict = traced_verdicts[n];
    // Every in-process layer must agree with what the wire returned.
    bool consistent = true;

    // net: framing both ways, as the client and the shard do it.
    util::ByteBuffer request_frame;
    util::ByteBuffer verdict_frame;
    spans.encode_ns.push_back(time_ns([&] {
      request_frame = net::encode_scan_request(mel::service::kDefaultTenant,
                                               request_id, payload);
      verdict_frame = net::encode_verdict(mel::service::kDefaultTenant,
                                          request_id, verdict);
    }));
    ++request_id;
    bool decoded = false;
    spans.decode_ns.push_back(time_ns([&] {
      decoder.feed(request_frame);
      auto frame = decoder.next();
      decoded = frame.is_ok() && frame.value().has_value();
      decoder.release();
      const util::ByteView body =
          util::ByteView(verdict_frame).subspan(net::kFrameHeaderBytes);
      decoded = decoded && net::decode_verdict_body(body).is_ok();
    }));
    consistent = consistent && decoded;

    // super: content fingerprint and the quarantine probe.
    mel::persist::Fingerprint fingerprint;
    spans.fingerprint_ns.push_back(time_ns(
        [&] { fingerprint = mel::persist::fingerprint_payload(payload); }));
    bool quarantined = false;
    spans.quarantine_ns.push_back(
        time_ns([&] { quarantined = quarantine.is_quarantined(fingerprint); }));
    consistent = consistent && !quarantined;

    // core: text check, then estimation + threshold on the preset table.
    bool is_text = false;
    spans.text_ns.push_back(
        time_ns([&] { is_text = util::is_text_buffer(payload); }));
    // MelDetector::scan runs both per payload (derive_threshold estimates
    // a second time internally).
    mel::core::EstimatedParameters params;
    double tau = 0.0;
    spans.estimate_ns.push_back(time_ns([&] {
      params = mel::core::estimate_parameters(preset, payload.size(),
                                              detector_config.estimation);
      tau = detector->derive_threshold(preset, payload.size());
    }));
    consistent = consistent && params.n > 0.0;

    // exec: the served engine with the served early-exit threshold.
    mel::exec::MelOptions options;
    options.rules = detector_config.rules;
    options.engine = detector_config.engine;
    if (detector_config.early_exit) {
      options.early_exit_threshold =
          static_cast<std::int64_t>(std::floor(tau));
    }
    mel::exec::MelResult mel_result;
    const double mel_ns = time_ns([&] {
      mel_result = mel::exec::compute_mel(payload, options, engine_scratch);
    });
    spans.mel_us.push_back(mel_ns / 1000.0);
    spans.insns.push_back(static_cast<double>(mel_result.instructions_decoded));
    if (mel_result.instructions_decoded > 0) {
      spans.ns_per_insn.push_back(
          mel_ns / static_cast<double>(mel_result.instructions_decoded));
    }
    if (mel_result.early_exit) spans.early_exits += 1;
    consistent = consistent && is_text == verdict.is_text &&
                 mel_result.mel == verdict.mel;

    // service: the shard's scan (with the workload's cache), and the
    // gates' excess over the bare detector.
    mel::service::ScanRequest request;
    request.payload = payload;
    request.scratch = &served_scratch;
    bool scanned = false;
    spans.scan_us.push_back(time_ns([&] {
                              scanned = served_service.scan(request).is_ok();
                            }) /
                            1000.0);
    request.scratch = &uncached_scratch;
    std::optional<mel::core::Verdict> fresh;
    const double service_ns = time_ns([&] {
      auto scan = uncached_service.scan(request);
      if (scan.is_ok()) fresh = scan.value().verdict;
    });
    const double detector_ns = time_ns([&] {
      (void)detector->scan(payload, mel::core::ScanBudget{}, detector_scratch);
    });
    spans.gate_ns.push_back(service_ns - detector_ns);
    consistent = consistent && scanned && fresh.has_value();

    // persist: the cache probe on the workload's sequence.
    std::optional<mel::core::Verdict> cached;
    spans.lookup_ns.push_back(
        time_ns([&] { cached = lookup_cache->lookup(fingerprint); }));
    if (!cached && fresh) lookup_cache->insert(fingerprint, *fresh);
    if (!consistent) report.outcomes.wrong += 1;
  }

  report.samples = spans.wire_us.size();
  report.wire_rtt_us = median(spans.wire_us);
  report.untraced_wire_rtt_us = median(spans.untraced_wire_us);
  if (traced_total_us > 0.0 && untraced_total_us > 0.0) {
    const double traced_rps =
        static_cast<double>(spans.wire_us.size()) / traced_total_us;
    const double untraced_rps =
        static_cast<double>(spans.untraced_wire_us.size()) / untraced_total_us;
    report.overhead_share = 1.0 - traced_rps / untraced_rps;
  }
  report.ping_rtt_us = median(spans.ping_us);
  report.frame_encode_ns = median(spans.encode_ns);
  report.frame_decode_ns = median(spans.decode_ns);
  report.fingerprint_ns = median(spans.fingerprint_ns);
  report.quarantine_probe_ns = median(spans.quarantine_ns);
  report.cache_lookup_ns = median(spans.lookup_ns);
  report.estimate_ns = median(spans.estimate_ns);
  report.text_check_ns = median(spans.text_ns);
  report.mel_us = median(spans.mel_us);
  report.insns_per_req = median(spans.insns);
  report.ns_per_insn = median(spans.ns_per_insn);
  report.early_exit_share =
      spans.mel_us.empty() ? 0.0
                           : static_cast<double>(spans.early_exits) /
                                 static_cast<double>(spans.mel_us.size());
  report.scan_us = median(spans.scan_us);
  report.gate_ns = median(spans.gate_ns);

  // service: calibration writes on the live server (identical config,
  // alternating tau anchor, as the zipf_recal writes).
  std::vector<double> calibration_us;
  for (std::size_t i = 0; i < kCalibrationSamples; ++i) {
    const auto start = Clock::now();
    if (!apply_recalibration(*target.server, i).is_ok()) {
      report.outcomes.refused += 1;
      break;
    }
    calibration_us.push_back(us_between(start, Clock::now()));
  }
  report.apply_calibration_us = median(calibration_us);

  // Stale-cache probe, last because it changes the serving calibration:
  // switch alpha, re-send payloads the shards have served, and count the
  // answers that still carry the old calibration. Not scored as request
  // failures; reported as oracle.stale_hit_share.
  mel::service::ServiceConfig shifted = service_config;
  shifted.detector.alpha = service_config.detector.alpha == 0.2 ? 0.1 : 0.2;
  const std::size_t probed =
      std::min(kStaleProbePayloads, workload.pool.size());
  const std::vector<util::ByteBuffer> probe_pool(
      workload.pool.begin(),
      workload.pool.begin() + static_cast<std::ptrdiff_t>(probed));
  auto shifted_oracle = build_oracle(shifted, probe_pool);
  if (shifted_oracle.is_ok() &&
      target.server
          ->apply_calibration(mel::service::kDefaultTenant, shifted.detector,
                              service_config.degraded_threshold)
          .is_ok()) {
    std::uint64_t stale = 0;
    for (std::size_t i = 0; i < probed; ++i) {
      const auto answer = client.scan(probe_pool[i]);
      if (answer.is_ok() &&
          !same_verdict(answer.value(), shifted_oracle.value()[i])) {
        stale += 1;
      }
    }
    report.stale_probed = probed;
    report.stale_hit_share =
        static_cast<double>(stale) / static_cast<double>(probed);
    (void)apply_recalibration(*target.server, 0);
  } else {
    report.outcomes.refused += 1;
  }
  return report;
}

}  // namespace servebench

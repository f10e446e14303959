// Serving benchmark for MelServer: starts the server in process (default
// config, 2 shards), drives it over loopback with one workload, checks
// every verdict against an in-process oracle, and prints the metrics.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs a closed loop (capacity) and then an open loop
// (latency) and reports the end-to-end metrics. --trace 1 runs both
// untraced phases shorter and then the traced phase, and reports the
// per-layer metrics plus a "where a request's time goes" table. The
// last stdout line is one JSON object: correct, attempted, failed,
// metrics.

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "mel/net/client.hpp"
#include "mel/net/server.hpp"
#include "mel/obs/metrics.hpp"
#include "mel/util/logging.hpp"
#include "workloads.hpp"

namespace {

using namespace servebench;
namespace net = mel::net;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds < 1.0 || options.seconds > 60.0) {
    usage("--seconds must be in [1, 60]");
  }
  return options;
}

/// The CPU's brand string, read with cpuid (no file outside the
/// checkout is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

/// One set-up sample: MelServer::start() until the first verdict is
/// back over a fresh connection. Returns the server for reuse.
struct SetupSample {
  std::unique_ptr<net::MelServer> server;
  double seconds = 0.0;
  bool correct = false;
};

SetupSample set_up(const WorkloadSpec& spec, const Workload& workload,
                   const std::vector<net::WireVerdict>& oracle) {
  SetupSample sample;
  const auto start = Clock::now();
  auto server = net::MelServer::start(server_config(spec));
  if (!server.is_ok()) return sample;
  sample.server = std::move(server).take();
  net::ClientConfig client_config;
  client_config.port = sample.server->port();
  auto client = net::ScanClient::connect(std::move(client_config));
  if (!client.is_ok()) return sample;
  const auto verdict = client.value().scan(workload.pool[0]);
  sample.seconds = seconds_between(start, Clock::now());
  sample.correct = verdict.is_ok() && same_verdict(verdict.value(), oracle[0]);
  return sample;
}

/// Summed mel_cache_lookups_total{outcome=...} over every shard.
double cache_hit_ratio(const net::MelServer& server) {
  double hits = 0.0;
  double misses = 0.0;
  for (std::size_t s = 0; s < server.shard_count(); ++s) {
    for (const mel::obs::CounterValue& counter :
         server.shard_service(s).metrics_snapshot().counters) {
      if (counter.name != "mel_cache_lookups_total") continue;
      if (counter.labels == "outcome=\"hit\"") {
        hits += static_cast<double>(counter.value);
      } else if (counter.labels == "outcome=\"miss\"") {
        misses += static_cast<double>(counter.value);
      }
    }
  }
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Outcomes& outcomes,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcomes.attempted),
              static_cast<unsigned long long>(outcomes.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_pool(const Workload& workload,
                const std::vector<net::WireVerdict>& oracle) {
  std::size_t smallest = SIZE_MAX;
  std::size_t largest = 0;
  std::set<mel::util::ByteBuffer> distinct;
  std::map<std::string_view, std::size_t> kinds;
  std::size_t malicious = 0;
  for (std::size_t i = 0; i < workload.pool.size(); ++i) {
    smallest = std::min(smallest, workload.pool[i].size());
    largest = std::max(largest, workload.pool[i].size());
    distinct.insert(workload.pool[i]);
    kinds[payload_kind_name(workload.kinds[i])] += 1;
    if (oracle[i].malicious) ++malicious;
  }
  std::printf("pool: %zu payloads, %zu distinct, %zu-%zu bytes, %zu flagged "
              "malicious by the oracle; composition:",
              workload.pool.size(), distinct.size(), smallest, largest,
              malicious);
  for (const auto& [kind, count] : kinds) {
    std::printf(" %.*s %zu", static_cast<int>(kind.size()), kind.data(),
                count);
  }
  std::printf("\n");
}

void print_use(const char* phase, const PoolUse& use) {
  const std::size_t distinct = use.distinct();
  std::printf("%s sequence: %llu requests, %zu distinct payloads, "
              "repeat share %.4f\n",
              phase, static_cast<unsigned long long>(use.requests), distinct,
              use.requests == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(distinct) /
                              static_cast<double>(use.requests));
}

void print_time_table(const LayerReport& layers, bool cache_on) {
  const double wire = layers.wire_rtt_us;
  auto row = [&](const char* layer, const char* metric, double us,
                 const char* note) {
    std::printf("  %-8s %-28s %10.2f us %7.1f%%  %s\n", layer, metric, us,
                wire > 0.0 ? 100.0 * us / wire : 0.0, note);
  };
  const double unattributed =
      wire - (layers.ping_rtt_us + layers.scan_us);
  std::printf("\nwhere a request's time goes (traced, 1 connection, %llu "
              "requests, p50; share of the wire round trip)\n",
              static_cast<unsigned long long>(layers.samples));
  row("net", "net.ping_rtt_us", layers.ping_rtt_us,
      "loopback round trip of an empty frame");
  row("service", "service.scan_us", layers.scan_us,
      "ScanService::scan as a shard runs it");
  row("net", "net.unattributed_us", unattributed,
      "payload transfer, framing, dispatch");
  row("=", "net.wire_rtt_us", wire, "sum of the three rows above");
  std::printf("  inside service.scan_us and net.unattributed_us:\n");
  row("service", "service.gate_ns", layers.gate_ns / 1000.0,
      "gates, accounting, metrics");
  row("core", "core.estimate_ns", layers.estimate_ns / 1000.0,
      cache_on ? "estimate_parameters + derive_threshold; misses only"
               : "estimate_parameters + derive_threshold");
  row("core", "core.text_check_ns", layers.text_check_ns / 1000.0,
      cache_on ? "util::is_text_buffer; misses only" : "util::is_text_buffer");
  row("exec", "exec.mel_us", layers.mel_us,
      cache_on ? "kLinearSweep, early exit at tau; misses only"
               : "kLinearSweep, early exit at tau");
  row("super", "super.fingerprint_ns", layers.fingerprint_ns / 1000.0,
      cache_on ? "cache key" : "off the path (no cache, no supervision)");
  row("super", "super.quarantine_probe_ns",
      layers.quarantine_probe_ns / 1000.0,
      "off the path (no supervision)");
  row("persist", "persist.cache_lookup_ns", layers.cache_lookup_ns / 1000.0,
      cache_on ? "VerdictCache::lookup" : "off the path (cache off)");
  row("net", "net.frame_encode_ns", layers.frame_encode_ns / 1000.0,
      "request + verdict frames");
  row("net", "net.frame_decode_ns", layers.frame_decode_ns / 1000.0,
      "request + verdict frames");
  std::printf("  trace.overhead_share %.4f (untraced wire p50 %.2f us)\n\n",
              layers.overhead_share, layers.untraced_wire_rtt_us);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr) usage(("unknown workload " + options.workload).c_str());
  mel::util::set_log_threshold(mel::util::LogLevel::kWarn);

  std::string command;
  for (int i = 0; i < argc; ++i) {
    command += (i == 0 ? "" : " ") + std::string(argv[i]);
  }
  std::printf("binary: %s\n", command.c_str());
  std::printf("machine: nproc=%ld cpu=\"%s\"; loopback TCP\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str());
  std::printf("server: default ServerConfig, %zu shards, cache_capacity %zu; "
              "served engine kLinearSweep with early exit at tau (the "
              "DetectorConfig defaults). bench_parallel_throughput's engine "
              "section (kCachedDag, early exit off) is not on this path.\n",
              kShards, spec->cache_capacity);

  const auto prepare_start = Clock::now();
  const Workload workload = make_workload(*spec, options.seed);
  auto oracle_or = build_oracle(server_config(*spec).service, workload.pool);
  if (!oracle_or.is_ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle_or.status().to_string().c_str());
    return 1;
  }
  const std::vector<net::WireVerdict> oracle = std::move(oracle_or).take();
  print_pool(workload, oracle);
  std::printf("inputs and oracle prepared in %.2fs (not timed)\n",
              seconds_between(prepare_start, Clock::now()));

  // The run is split into rounds of about 6 s. Each round takes set-up
  // samples, then a closed-loop segment (40% of the round), then an
  // open-loop segment (60%), so every metric samples the whole run
  // rather than one stretch of it: on a shared VM the host's speed
  // drifts by tens of percent over seconds. With --trace 1 the rounds
  // take 40% of the run and the traced phase the rest, after them.
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds / 6.0 + 0.5));
  const double round_seconds =
      options.seconds * (options.trace ? 0.4 : 1.0) / static_cast<double>(rounds);
  const double closed_seconds = round_seconds * 0.4;
  const double open_seconds = round_seconds * 0.6;
  constexpr double kWarmupSeconds = 0.1;
  // Set-up samples per round: MelServer::start() to the first verdict.
  constexpr int kSetupSamplesPerRound = 7;
  // Each end-to-end metric is a median over timing windows, so a host
  // stall that hits one window moves it by one rank, not by its size.
  // Closed loop: half-second windows. Open loop: windows of about 2000
  // scheduled requests, so even a window's p99 has 20 samples beyond it.
  const auto closed_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(closed_seconds * 2.0));
  const auto open_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(open_seconds * spec->open_rate_rps / 2000.0));
  // Open-loop sockets: enough that a burst queued behind a host stall
  // stays under the per-connection pipelining cap (64 responses).
  constexpr std::size_t kOpenConnections = 32;

  std::vector<double> setup_s;
  bool correct = true;
  auto sample_setup = [&](std::unique_ptr<net::MelServer>* keep) {
    // Server threads inherit the creating thread's CPU placement.
    pin_current_thread(CpuSide::kServer);
    for (int i = 0; i < kSetupSamplesPerRound; ++i) {
      SetupSample sample = set_up(*spec, workload, oracle);
      if (sample.server == nullptr || sample.seconds <= 0.0) return false;
      correct = correct && sample.correct;
      setup_s.push_back(sample.seconds);
      if (keep != nullptr && i + 1 == kSetupSamplesPerRound) {
        *keep = std::move(sample.server);
      } else {
        sample.server->drain();
      }
    }
    pin_current_thread(CpuSide::kGenerator);
    return true;
  };

  // The first round's last set-up sample is the server under test.
  std::unique_ptr<net::MelServer> server;
  if (!sample_setup(&server)) {
    std::fprintf(stderr, "server set-up failed\n");
    return 1;
  }
  const Target target{.workload = &workload, .oracle = &oracle,
                      .server = server.get()};
  ClosedLoopResult closed;
  OpenLoopResult open;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0 && !sample_setup(nullptr)) {
      std::fprintf(stderr, "server set-up failed\n");
      return 1;
    }
    const std::uint64_t stream = options.seed * 64 + round;
    closed.merge(run_closed_loop(target, kShards, kWarmupSeconds,
                                 closed_seconds, closed_windows, stream));
    open.merge(run_open_loop(target, kOpenConnections, kWarmupSeconds,
                             open_seconds, open_windows, stream));
  }
  Outcomes outcomes = closed.outcomes;
  outcomes += open.outcomes;

  std::optional<LayerReport> layers;
  if (options.trace) {
    layers = run_traced(target, options.seconds * 0.6, options.seed);
    outcomes += layers->outcomes;
  }
  const double hit_ratio = cache_hit_ratio(*server);
  server->drain();

  correct = correct && outcomes.failed() == 0 && outcomes.attempted > 0;
  const double throughput = median(closed.window_rps);
  const double p50 = median(open.window_p50_us);
  const double p90 = median(open.window_p90_us);
  const double p99 = median(open.window_p99_us);
  const double setup = median(setup_s);
  const double lag_p99 = quantile(open.lag_us, 0.99);

  print_use("closed-loop", closed.use);
  print_use("open-loop", open.use);
  std::printf(
      "closed loop: %zu connections, %zu rounds, %.2fs timed, %llu verdicts "
      "passed the oracle; throughput_rps %.1f 1/s (median of %zu windows)\n",
      kShards, rounds, closed.timed_seconds,
      static_cast<unsigned long long>(closed.timed_correct), throughput,
      closed.window_rps.size());
  std::printf(
      "open loop: 1 generator thread, %zu connections, Poisson %.0f req/s, "
      "%llu timed samples; latency_p50_us %.2f us, latency_p90_us %.2f us "
      "(medians of %zu windows); p99 %.2f us (median of windows, not a "
      "bounded metric: on a shared VM it tracks host preemption); "
      "loadgen.lag_p99_us %.2f us\n",
      kOpenConnections, open.offered_rps,
      static_cast<unsigned long long>(open.timed_samples), p50, p90,
      open.window_p90_us.size(), p99, lag_p99);
  auto print_windows = [](const char* label, const std::vector<double>& v) {
    std::printf("  %s over %zu windows: min %.1f  q1 %.1f  median %.1f  "
                "q3 %.1f  max %.1f\n",
                label, v.size(), quantile(v, 0.0), quantile(v, 0.25),
                quantile(v, 0.5), quantile(v, 0.75), quantile(v, 1.0));
  };
  print_windows("throughput_rps", closed.window_rps);
  print_windows("latency_p50_us", open.window_p50_us);
  print_windows("latency_p90_us", open.window_p90_us);
  print_windows("latency_p99_us", open.window_p99_us);
  std::printf("setup_s %.6f s (median of %zu start()-to-first-verdict "
              "samples)\n",
              setup, setup_s.size());
  std::printf("calibration writes: %llu (closed) + %llu (open); "
              "persist.cache_hit_ratio %.4f\n",
              static_cast<unsigned long long>(closed.calibrations),
              static_cast<unsigned long long>(open.calibrations), hit_ratio);
  std::printf("oracle: %llu attempted, %llu correct, %llu wrong, %llu "
              "refused, %llu transport errors; failed share %.6f\n",
              static_cast<unsigned long long>(outcomes.attempted),
              static_cast<unsigned long long>(outcomes.correct),
              static_cast<unsigned long long>(outcomes.wrong),
              static_cast<unsigned long long>(outcomes.refused),
              static_cast<unsigned long long>(outcomes.transport),
              outcomes.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcomes.failed()) /
                        static_cast<double>(outcomes.attempted));

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {{"throughput_rps", throughput, "1/s"},
               {"latency_p50_us", p50, "us"},
               {"latency_p90_us", p90, "us"},
               {"setup_s", setup, "s"}};
  } else {
    const LayerReport& l = *layers;
    print_time_table(l, spec->cache_capacity > 0);
    std::printf("stale-cache probe: %llu payloads re-sent after an alpha "
                "change, oracle.stale_hit_share %.4f\n",
                static_cast<unsigned long long>(l.stale_probed),
                l.stale_hit_share);
    metrics = {
        {"exec.mel_us", l.mel_us, "us"},
        {"exec.insns_per_req", l.insns_per_req, "count"},
        {"exec.ns_per_insn", l.ns_per_insn, "ns"},
        {"exec.early_exit_share", l.early_exit_share, "ratio"},
        {"core.estimate_ns", l.estimate_ns, "ns"},
        {"core.text_check_ns", l.text_check_ns, "ns"},
        {"service.scan_us", l.scan_us, "us"},
        {"service.gate_ns", l.gate_ns, "ns"},
        {"service.apply_calibration_us", l.apply_calibration_us, "us"},
        {"super.fingerprint_ns", l.fingerprint_ns, "ns"},
        {"super.quarantine_probe_ns", l.quarantine_probe_ns, "ns"},
        {"persist.cache_lookup_ns", l.cache_lookup_ns, "ns"},
        {"persist.cache_hit_ratio", hit_ratio, "ratio"},
        {"net.ping_rtt_us", l.ping_rtt_us, "us"},
        {"net.frame_encode_ns", l.frame_encode_ns, "ns"},
        {"net.frame_decode_ns", l.frame_decode_ns, "ns"},
        {"net.wire_rtt_us", l.wire_rtt_us, "us"},
        {"net.unattributed_us",
         l.wire_rtt_us - (l.ping_rtt_us + l.scan_us), "us"},
        {"loadgen.lag_p99_us", lag_p99, "us"},
        {"trace.overhead_share", l.overhead_share, "ratio"},
        {"oracle.stale_hit_share", l.stale_hit_share, "ratio"},
    };
  }
  std::fflush(stdout);
  print_result(correct, outcomes, metrics);
  return 0;
}

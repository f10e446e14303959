#pragma once
// The serving benchmark's workloads: seeded payload pools, the request
// sequences drawn from them, the server configuration each workload
// runs under, and the verdict oracle every response is checked against.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mel/core/detector.hpp"
#include "mel/net/frame.hpp"
#include "mel/net/server.hpp"
#include "mel/service/scan_service.hpp"
#include "mel/util/bytes.hpp"
#include "mel/util/rng.hpp"
#include "mel/util/status.hpp"

namespace servebench {

/// Shard threads of the server under test. Shards plus load-generator
/// threads stay within a 4-vCPU machine: 2 + 2 in the closed loop, 2 + 1
/// in the open loop.
inline constexpr std::size_t kShards = 2;

struct WorkloadSpec {
  std::string_view name;
  /// Bytes per payload.
  std::size_t payload_bytes = 0;
  /// Distinct payloads generated; requests draw from this pool.
  std::size_t pool_size = 0;
  /// Draw pool indices from a u^3-Zipf law instead of cycling through
  /// seeded permutations of the pool.
  bool zipf = false;
  /// ServerConfig::cache_capacity (0 leaves the verdict cache off).
  std::size_t cache_capacity = 0;
  /// Fixed open-loop arrival rate (Poisson): about a fifth of the
  /// workload's closed-loop capacity on a 4-vCPU Xeon VM. A shared host
  /// can take half the VM's speed for minutes; at this rate that still
  /// leaves the shards short of saturation, where queueing would swamp
  /// the latency figures.
  double open_rate_rps = 0.0;
  /// Issue one MelServer::apply_calibration every this many requests
  /// (0: no calibration writes).
  std::size_t recalibrate_every = 0;
};

/// The workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
/// Null when `name` names no workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

enum class PayloadKind : std::uint8_t {
  kHttp,  ///< Header-stripped HTTP body (html, prose or form).
  kMail,
  kWorm,  ///< Text worm (blended to size, or a prefix slice).
  kForm,  ///< Form post / query string slice.
  kHeader,
  kChat,
};

[[nodiscard]] std::string_view payload_kind_name(PayloadKind kind);

struct Workload {
  const WorkloadSpec* spec = nullptr;
  std::vector<mel::util::ByteBuffer> pool;
  std::vector<PayloadKind> kinds;  ///< Parallel to pool.
};

/// Generates the workload's payload pool from `seed` alone.
[[nodiscard]] Workload make_workload(const WorkloadSpec& spec,
                                     std::uint64_t seed);

/// One seeded stream of pool indices (one per load-generator thread).
class Sequence {
 public:
  Sequence(const WorkloadSpec& spec, std::size_t pool_size,
           std::uint64_t seed);
  [[nodiscard]] std::size_t next();

 private:
  void reshuffle();

  mel::util::Xoshiro256 rng_;
  bool zipf_;
  std::vector<std::uint32_t> order_;
  std::size_t pos_ = 0;
};

/// Default ServerConfig with kShards shards and the workload's cache.
[[nodiscard]] mel::net::ServerConfig server_config(const WorkloadSpec& spec);

/// The second calibration the zipf_recal writes alternate with: the same
/// DetectorConfig (so both serve identical verdicts), another tau anchor.
/// `generation` 0 and 1 alternate.
[[nodiscard]] double recalibration_tau(std::uint64_t generation);

/// Expected wire verdict per pool entry, from an in-process ScanService
/// built from `service` (cache off: a cached verdict must equal a fresh
/// scan). scan_id is left 0 and never compared.
[[nodiscard]] mel::util::StatusOr<std::vector<mel::net::WireVerdict>>
build_oracle(const mel::service::ServiceConfig& service,
             const std::vector<mel::util::ByteBuffer>& pool);

/// Every WireVerdict field except scan_id, doubles compared bit for bit.
[[nodiscard]] bool same_verdict(const mel::net::WireVerdict& wire,
                                const mel::net::WireVerdict& expected);

}  // namespace servebench

#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "mel/textcode/blend.hpp"
#include "mel/textcode/encoder.hpp"
#include "mel/traffic/dataset.hpp"
#include "mel/traffic/email_gen.hpp"
#include "mel/traffic/english_model.hpp"
#include "mel/traffic/http_gen.hpp"

namespace servebench {

namespace util = mel::util;

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "mixed_4k",
       .payload_bytes = 4000,
       .pool_size = 4096,
       .open_rate_rps = 3000.0},
      {.name = "small_200b",
       .payload_bytes = 200,
       .pool_size = 16384,
       .open_rate_rps = 10000.0},
      {.name = "zipf_recal",
       .payload_bytes = 4000,
       .pool_size = 64,
       .zipf = true,
       .cache_capacity = 64 * kShards * 4,
       .open_rate_rps = 12000.0,
       .recalibrate_every = 8192},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string_view payload_kind_name(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kHttp:
      return "http";
    case PayloadKind::kMail:
      return "mail";
    case PayloadKind::kWorm:
      return "worm";
    case PayloadKind::kForm:
      return "form";
    case PayloadKind::kHeader:
      return "header";
    case PayloadKind::kChat:
      return "chat";
  }
  return "unknown";
}

namespace {

/// Fits `text` to exactly `size` bytes: a seeded window when longer,
/// space padding when shorter. Always pure text (ascii_filter).
util::ByteBuffer fit(const std::string& text, std::size_t size,
                     util::Xoshiro256& rng) {
  std::string filtered = mel::traffic::ascii_filter(text);
  if (filtered.size() > size) {
    const std::size_t start = rng.next_below(filtered.size() - size + 1);
    filtered = filtered.substr(start, size);
  }
  filtered.resize(size, ' ');
  return util::to_bytes(filtered);
}

/// Text worms fitted to `size`: blended up to it with benign-profile
/// padding, or cut to a prefix (the sled and the decrypter's start).
std::vector<util::ByteBuffer> make_worms(std::size_t count, std::size_t size,
                                         std::uint64_t seed,
                                         util::Xoshiro256& rng) {
  std::vector<util::ByteBuffer> out;
  if (count == 0) return out;
  const auto corpus = mel::textcode::text_worm_corpus(count, seed);
  for (std::size_t i = 0; i < count; ++i) {
    const util::ByteBuffer& worm = corpus[i % corpus.size()].bytes;
    if (worm.size() >= size) {
      out.emplace_back(worm.begin(),
                       worm.begin() + static_cast<std::ptrdiff_t>(size));
    } else {
      out.push_back(mel::textcode::blend_to_distribution(
          worm, mel::traffic::web_text_distribution(), {.total_size = size},
          rng));
    }
  }
  return out;
}

/// The gateway mix: 75% header-stripped HTTP bodies (html/prose/form in
/// the dataset's proportions), 20% mail bodies, 5% text worms.
void add_gateway_mix(Workload& out, std::size_t count, std::size_t size,
                     std::uint64_t seed, util::Xoshiro256& rng) {
  const std::size_t worms = std::max<std::size_t>(1, count / 20);
  const std::size_t mail = count / 5;
  const std::size_t http = count - worms - mail;
  mel::traffic::BenignDatasetOptions options;
  options.cases = http;
  options.case_size = size;
  options.seed = seed;
  for (auto& payload : mel::traffic::make_benign_dataset(options)) {
    out.pool.push_back(std::move(payload));
    out.kinds.push_back(PayloadKind::kHttp);
  }
  const mel::traffic::EmailGenerator email;
  for (auto& payload : email.make_mail_corpus(mail, size, seed + 1)) {
    out.pool.push_back(std::move(payload));
    out.kinds.push_back(PayloadKind::kMail);
  }
  for (auto& payload : make_worms(worms, size, seed + 2, rng)) {
    out.pool.push_back(std::move(payload));
    out.kinds.push_back(PayloadKind::kWorm);
  }
}

/// Small requests: 40% form posts, 30% request header blocks, 25% chat
/// lines, 5% text-worm prefixes, each cut to `size` bytes.
void add_small_mix(Workload& out, std::size_t count, std::size_t size,
                   std::uint64_t seed, util::Xoshiro256& rng) {
  const std::size_t worms = std::max<std::size_t>(1, count / 20);
  const std::size_t forms = count * 2 / 5;
  const std::size_t headers = count * 3 / 10;
  const std::size_t chats = count - worms - forms - headers;
  const mel::traffic::HttpGenerator http(seed);
  const mel::traffic::MarkovTextGenerator text;
  for (std::size_t i = 0; i < forms; ++i) {
    const mel::traffic::HttpMessage request = http.make_request(rng);
    out.pool.push_back(fit(http.make_url(rng) + '&' +
                               mel::traffic::strip_headers(request.raw),
                           size, rng));
    out.kinds.push_back(PayloadKind::kForm);
  }
  for (std::size_t i = 0; i < headers; ++i) {
    out.pool.push_back(fit(http.make_request(rng).headers, size, rng));
    out.kinds.push_back(PayloadKind::kHeader);
  }
  for (std::size_t i = 0; i < chats; ++i) {
    out.pool.push_back(fit(text.generate(size, rng), size, rng));
    out.kinds.push_back(PayloadKind::kChat);
  }
  for (auto& payload : make_worms(worms, size, seed + 2, rng)) {
    out.pool.push_back(std::move(payload));
    out.kinds.push_back(PayloadKind::kWorm);
  }
}

}  // namespace

Workload make_workload(const WorkloadSpec& spec, std::uint64_t seed) {
  Workload out;
  out.spec = &spec;
  util::Xoshiro256 rng(seed ^ 0x5E87E5EEDULL);
  if (spec.payload_bytes >= 1000) {
    add_gateway_mix(out, spec.pool_size, spec.payload_bytes, seed, rng);
  } else {
    add_small_mix(out, spec.pool_size, spec.payload_bytes, seed, rng);
  }
  // One seeded shuffle, so worms and mail are spread through the pool
  // (and, under Zipf, land at seed-dependent popularity ranks).
  for (std::size_t i = out.pool.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(out.pool[i - 1], out.pool[j]);
    std::swap(out.kinds[i - 1], out.kinds[j]);
  }
  return out;
}

Sequence::Sequence(const WorkloadSpec& spec, std::size_t pool_size,
                   std::uint64_t seed)
    : rng_(seed), zipf_(spec.zipf), order_(pool_size) {
  for (std::size_t i = 0; i < pool_size; ++i) {
    order_[i] = static_cast<std::uint32_t>(i);
  }
  reshuffle();
}

void Sequence::reshuffle() {
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng_.next_below(i)]);
  }
  pos_ = 0;
}

std::size_t Sequence::next() {
  if (zipf_) {
    // u^3 concentrates mass on low ranks: P(rank i) =
    // ((i+1)/N)^(1/3) - (i/N)^(1/3). Rank i is pool entry i for every
    // stream, so all generators share one popularity order (the pool
    // itself was shuffled with the workload seed).
    const double u = rng_.next_double();
    const auto rank = static_cast<std::size_t>(
        u * u * u * static_cast<double>(order_.size()));
    return std::min(rank, order_.size() - 1);
  }
  if (pos_ == order_.size()) reshuffle();
  return order_[pos_++];
}

mel::net::ServerConfig server_config(const WorkloadSpec& spec) {
  mel::net::ServerConfig config;
  config.shards = kShards;
  config.cache_capacity = spec.cache_capacity;
  return config;
}

double recalibration_tau(std::uint64_t generation) {
  const mel::service::ServiceConfig defaults;
  return generation % 2 == 0 ? defaults.degraded_threshold
                             : defaults.degraded_threshold + 1.0;
}

util::StatusOr<std::vector<mel::net::WireVerdict>> build_oracle(
    const mel::service::ServiceConfig& service,
    const std::vector<util::ByteBuffer>& pool) {
  mel::service::ServiceConfig config = service;
  config.verdict_cache = nullptr;
  config.metrics = nullptr;
  auto created = mel::service::ScanService::create(std::move(config));
  if (!created.is_ok()) return created.status();
  const mel::service::ScanService oracle = std::move(created).take();
  mel::exec::MelScratch scratch;
  std::vector<mel::net::WireVerdict> expected;
  expected.reserve(pool.size());
  for (const util::ByteBuffer& payload : pool) {
    mel::service::ScanRequest request;
    request.payload = payload;
    request.scratch = &scratch;
    auto report = oracle.scan(request);
    if (!report.is_ok()) return report.status();
    const mel::core::Verdict& verdict = report.value().verdict;
    mel::net::WireVerdict wire;
    wire.malicious = verdict.malicious;
    wire.degraded = verdict.degraded;
    wire.is_text = verdict.is_text;
    wire.loop_detected = verdict.loop_detected;
    wire.mel = verdict.mel;
    wire.threshold = verdict.threshold;
    wire.alpha = verdict.alpha;
    expected.push_back(wire);
  }
  return expected;
}

bool same_verdict(const mel::net::WireVerdict& wire,
                  const mel::net::WireVerdict& expected) {
  return wire.malicious == expected.malicious &&
         wire.degraded == expected.degraded &&
         wire.is_text == expected.is_text &&
         wire.loop_detected == expected.loop_detected &&
         wire.mel == expected.mel &&
         std::bit_cast<std::uint64_t>(wire.threshold) ==
             std::bit_cast<std::uint64_t>(expected.threshold) &&
         std::bit_cast<std::uint64_t>(wire.alpha) ==
             std::bit_cast<std::uint64_t>(expected.alpha);
}

}  // namespace servebench

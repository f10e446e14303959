#include "loadgen.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <thread>

#include "mel/net/client.hpp"

namespace servebench {

namespace net = mel::net;
namespace util = mel::util;

void PoolUse::merge(const PoolUse& other) {
  requests += other.requests;
  if (seen.size() < other.seen.size()) seen.resize(other.seen.size());
  for (std::size_t i = 0; i < other.seen.size(); ++i) {
    if (other.seen[i]) seen[i] = true;
  }
}

std::size_t PoolUse::distinct() const {
  return static_cast<std::size_t>(std::count(seen.begin(), seen.end(), true));
}

namespace {

void append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

void ClosedLoopResult::merge(const ClosedLoopResult& other) {
  outcomes += other.outcomes;
  append(window_rps, other.window_rps);
  timed_correct += other.timed_correct;
  timed_seconds += other.timed_seconds;
  calibrations += other.calibrations;
  use.merge(other.use);
}

void OpenLoopResult::merge(const OpenLoopResult& other) {
  outcomes += other.outcomes;
  append(window_p50_us, other.window_p50_us);
  append(window_p90_us, other.window_p90_us);
  append(window_p99_us, other.window_p99_us);
  timed_samples += other.timed_samples;
  append(lag_us, other.lag_us);
  offered_rps = other.offered_rps;
  calibrations += other.calibrations;
  use.merge(other.use);
}

util::Status apply_recalibration(net::MelServer& server,
                                 std::uint64_t generation) {
  return server.apply_calibration(mel::service::kDefaultTenant,
                                  server.config().service.detector,
                                  recalibration_tau(generation));
}

namespace {

/// Scores one answered request against the oracle.
void score(Outcomes& outcomes, const util::StatusOr<net::WireVerdict>& answer,
           const net::WireVerdict& expected, bool connected) {
  outcomes.attempted += 1;
  if (answer.is_ok()) {
    if (same_verdict(answer.value(), expected)) {
      outcomes.correct += 1;
    } else {
      outcomes.wrong += 1;
    }
  } else if (connected) {
    outcomes.refused += 1;
  } else {
    outcomes.transport += 1;
  }
}

struct ClosedLedger {
  Outcomes outcomes;
  std::vector<std::uint64_t> window_correct;
  std::uint64_t timed_correct = 0;
  std::uint64_t calibrations = 0;
  PoolUse use;
};

}  // namespace

ClosedLoopResult run_closed_loop(const Target& target, std::size_t clients,
                                 double warmup_seconds, double seconds,
                                 std::size_t windows, std::uint64_t seed) {
  const WorkloadSpec& spec = *target.workload->spec;
  const std::size_t pool_size = target.workload->pool.size();
  ClosedLoopResult result;

  std::vector<net::ScanClient> connections;
  for (std::size_t c = 0; c < clients; ++c) {
    net::ClientConfig config;
    config.port = target.server->port();
    auto client = net::ScanClient::connect(std::move(config));
    if (!client.is_ok()) {
      result.outcomes.attempted += 1;
      result.outcomes.transport += 1;
      return result;
    }
    connections.push_back(std::move(client).take());
  }

  std::atomic<std::uint64_t> generation{1};
  const std::size_t recalibrate_every =
      spec.recalibrate_every == 0
          ? 0
          : std::max<std::size_t>(1, spec.recalibrate_every / clients);
  const auto timed_start = Clock::now() +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(warmup_seconds));
  const double window_seconds = seconds / static_cast<double>(windows);
  const auto end = timed_start +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));

  std::vector<ClosedLedger> ledgers(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pin_current_thread(CpuSide::kGenerator);
      ClosedLedger& ledger = ledgers[c];
      ledger.window_correct.assign(windows, 0);
      ledger.use.seen.assign(pool_size, false);
      net::ScanClient& client = connections[c];
      Sequence sequence(spec, pool_size, seed * 1000003 + c);
      std::uint64_t sent = 0;
      while (true) {
        if (Clock::now() >= end) break;
        const std::size_t index = sequence.next();
        const auto answer = client.scan(target.workload->pool[index]);
        const auto done = Clock::now();
        const std::uint64_t correct_before = ledger.outcomes.correct;
        score(ledger.outcomes, answer, (*target.oracle)[index],
              client.connected());
        ledger.use.requests += 1;
        ledger.use.seen[index] = true;
        if (!client.connected()) break;
        if (done >= timed_start && done < end &&
            ledger.outcomes.correct > correct_before) {
          const auto window = static_cast<std::size_t>(
              seconds_between(timed_start, done) / window_seconds);
          ledger.window_correct[std::min(window, windows - 1)] += 1;
          ledger.timed_correct += 1;
        }
        sent += 1;
        if (recalibrate_every != 0 && sent % recalibrate_every == 0) {
          const std::uint64_t next =
              generation.fetch_add(1, std::memory_order_relaxed);
          if (apply_recalibration(*target.server, next).is_ok()) {
            ledger.calibrations += 1;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  result.window_rps.assign(windows, 0.0);
  result.use.seen.assign(pool_size, false);
  for (const ClosedLedger& ledger : ledgers) {
    result.outcomes += ledger.outcomes;
    result.timed_correct += ledger.timed_correct;
    result.calibrations += ledger.calibrations;
    result.use.merge(ledger.use);
    for (std::size_t w = 0; w < windows; ++w) {
      result.window_rps[w] +=
          static_cast<double>(ledger.window_correct[w]) / window_seconds;
    }
  }
  result.timed_seconds = seconds;
  return result;
}

namespace {

/// A raw client socket: blocking sends, non-blocking receives into a
/// FrameDecoder, so one thread can keep several requests in flight.
struct OpenConnection {
  int fd = -1;
  net::FrameDecoder decoder;

  OpenConnection() = default;
  OpenConnection(const OpenConnection&) = delete;
  OpenConnection& operator=(const OpenConnection&) = delete;
  ~OpenConnection() {
    if (fd >= 0) ::close(fd);
  }

  bool open(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd, reinterpret_cast<const ::sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send_all(const util::ByteBuffer& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ::ssize_t n =
          ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Drains the socket into the decoder; false on EOF or error.
  bool receive() {
    while (true) {
      std::span<std::uint8_t> area = decoder.write_area(64 * 1024);
      const ::ssize_t n = ::recv(fd, area.data(), area.size(), MSG_DONTWAIT);
      if (n < 0) {
        decoder.commit(0);
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
      if (n == 0) {
        decoder.commit(0);
        return false;
      }
      decoder.commit(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < area.size()) return true;
    }
  }
};

}  // namespace

OpenLoopResult run_open_loop(const Target& target, std::size_t connections,
                             double warmup_seconds, double seconds,
                             std::size_t windows, std::uint64_t seed) {
  const WorkloadSpec& spec = *target.workload->spec;
  const std::size_t pool_size = target.workload->pool.size();
  OpenLoopResult result;
  result.offered_rps = spec.open_rate_rps;
  result.use.seen.assign(pool_size, false);

  // The seeded schedule: exponential gaps at the fixed rate.
  util::Xoshiro256 rng(seed * 7919 + 17);
  Sequence sequence(spec, pool_size, seed * 1000003 + 99);
  const double total_seconds = warmup_seconds + seconds;
  std::vector<double> due_s;  // Offsets from the schedule origin.
  std::vector<std::uint32_t> index;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / spec.open_rate_rps;
    if (t >= total_seconds) break;
    due_s.push_back(t);
    index.push_back(static_cast<std::uint32_t>(sequence.next()));
  }
  const std::size_t total = due_s.size();

  std::vector<OpenConnection> sockets(connections);
  for (OpenConnection& socket : sockets) {
    if (!socket.open(target.server->port())) {
      result.outcomes.attempted += 1;
      result.outcomes.transport += 1;
      return result;
    }
  }
  std::vector<::pollfd> fds(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    fds[c].fd = sockets[c].fd;
    fds[c].events = POLLIN;
  }

  const auto origin = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](std::size_t i) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
  };
  const auto give_up = origin + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        total_seconds + 10.0));
  const double window_seconds = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> window_latency(windows);
  std::vector<bool> answered(total, false);
  std::uint64_t generation = 1;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool broken = false;

  auto record = [&](std::size_t i, Clock::time_point at,
                    const util::StatusOr<net::WireVerdict>& answer) {
    answered[i] = true;
    outstanding -= 1;
    score(result.outcomes, answer, (*target.oracle)[index[i]], true);
    if (due_s[i] < warmup_seconds) return;
    const auto window = static_cast<std::size_t>(
        (due_s[i] - warmup_seconds) / window_seconds);
    window_latency[std::min(window, windows - 1)].push_back(
        us_between(due(i), at));
  };

  while ((next < total || outstanding > 0) && !broken) {
    auto now = Clock::now();
    if (now > give_up) break;
    while (next < total && due(next) <= now) {
      const util::ByteBuffer frame = net::encode_scan_request(
          mel::service::kDefaultTenant, next + 1,
          target.workload->pool[index[next]]);
      const auto sent_at = Clock::now();
      if (!sockets[next % connections].send_all(frame)) {
        broken = true;
        break;
      }
      if (due_s[next] >= warmup_seconds) {
        result.lag_us.push_back(us_between(due(next), sent_at));
      }
      result.use.requests += 1;
      result.use.seen[index[next]] = true;
      outstanding += 1;
      next += 1;
      if (spec.recalibrate_every != 0 && next % spec.recalibrate_every == 0) {
        if (apply_recalibration(*target.server, generation++).is_ok()) {
          result.calibrations += 1;
        }
      }
      now = Clock::now();
    }
    if (broken) break;

    // Wait for responses until the next send is due: sleep in the poller
    // while that is far off, spin on a zero-timeout poll when close.
    const auto until =
        next < total ? due(next) : now + std::chrono::milliseconds(50);
    const auto wait = until - now;
    ::timespec timeout{0, 0};
    if (wait > std::chrono::microseconds(150)) {
      const auto sleep_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                wait - std::chrono::microseconds(100))
                                .count();
      timeout.tv_sec = static_cast<::time_t>(sleep_ns / 1'000'000'000);
      timeout.tv_nsec = static_cast<long>(sleep_ns % 1'000'000'000);
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < connections && !broken; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const bool alive = sockets[c].receive();
      const auto at = Clock::now();
      while (true) {
        auto frame = sockets[c].decoder.next();
        if (!frame.is_ok()) {
          broken = true;
          break;
        }
        if (!frame.value().has_value()) break;
        const net::FrameView view = *frame.value();
        const std::uint64_t id = view.header.request_id;
        if (id == 0 || id > total || answered[id - 1]) {
          broken = true;
          break;
        }
        if (view.header.type == net::FrameType::kVerdict) {
          record(id - 1, at, net::decode_verdict_body(view.payload));
        } else if (view.header.type == net::FrameType::kError) {
          auto error = net::decode_error_body(view.payload);
          record(id - 1, at,
                 error.is_ok() ? error.value().status : error.status());
        } else {
          broken = true;
        }
        sockets[c].decoder.release();
      }
      if (!alive) broken = true;
    }
  }
  // Whatever never came back is a transport failure.
  const std::uint64_t lost = total - result.outcomes.attempted;
  result.outcomes.attempted += lost;
  result.outcomes.transport += lost;

  for (const std::vector<double>& latencies : window_latency) {
    result.timed_samples += latencies.size();
    result.window_p50_us.push_back(quantile(latencies, 0.50));
    result.window_p90_us.push_back(quantile(latencies, 0.90));
    result.window_p99_us.push_back(quantile(latencies, 0.99));
  }
  return result;
}

}  // namespace servebench

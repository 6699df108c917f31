// serve_mix: one in-process service::Server with 2 workers, fed over
// socketpairs by 2 closed-loop clients multiplexed on the main thread.
// Requests carry the 16 paper programs rendered with testing::emit_flo,
// crossed with the 3 masks: 48 compile keys, each with a tier and cache
// scale drawn by the seed. Most requests repeat a key and the first request
// for each key compiles. There are no deadlines and no quotas, and the
// queue is deeper than the client count, so no request can be shed or
// throttled.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <system_error>
#include <thread>

#include "common.hpp"
#include "core/compile_cache.hpp"
#include "ir/parser.hpp"
#include "probes.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "testing/emit.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace {

namespace core = flo::core;
namespace svc = flo::service;

constexpr std::size_t kClients = 2;
constexpr std::size_t kRequestsPerClient = 300;
constexpr int kIoTimeoutMs = 60000;
constexpr std::array<svc::Mask, 3> kMasks = {svc::Mask::kBoth, svc::Mask::kIo,
                                             svc::Mask::kStorage};
constexpr std::array<double, 3> kExactScales = {0.5, 1.0, 2.0};
/// Template requests name any member of the family; all share one compile.
constexpr std::array<double, 4> kMemberScales = {0.5, 1.0, 2.0, 4.0};

svc::ServerConfig server_config() {
  svc::ServerConfig config;
  config.workers = 2;
  config.queue_depth = 64;
  config.tenant_rate = 0;
  config.default_deadline_ms = 0;
  config.cache_capacity = 256;
  return config;
}

/// One compile key: a program under a mask, a tier and (exact tier only) a
/// cache scale. Each (program, mask) pair has one key, so a template request
/// can never be answered from an exact entry of its own pair or vice versa.
struct KeySpec {
  std::size_t program = 0;
  svc::Mask mask = svc::Mask::kBoth;
  svc::Tier tier = svc::Tier::kExact;
  double exact_scale = 1.0;
};

struct Sent {
  svc::Request request;
  std::size_t key = 0;
};

std::uint64_t digest_response(const svc::Response& r) {
  Digest d;
  d.str(svc::status_name(r.status));
  d.str(r.tier);
  d.str(r.body);
  d.str(r.body_hash);
  return d.value();
}

/// The compile configuration service::Server derives from a request (see
/// Server::compile_response). after_traced compiles every key with it and
/// requires the served plan, so a drift from the server's derivation fails
/// the run instead of timing a different compile.
core::ExperimentConfig server_side_config(const svc::Request& request) {
  const auto scaled = [&](std::uint64_t bytes) -> std::uint64_t {
    const double v = static_cast<double>(bytes) * request.cache_scale;
    return v < 1 ? 1 : static_cast<std::uint64_t>(std::llround(v));
  };
  const auto divisor = [](std::size_t nodes, std::size_t upper) {
    std::size_t n = std::min(upper, nodes);
    while (n > 1 && nodes % n != 0) --n;
    return std::max<std::size_t>(1, n);
  };
  core::ExperimentConfig config;
  config.threads = request.threads;
  config.topology.compute_nodes = request.threads;
  config.topology.io_nodes = divisor(request.threads, config.topology.io_nodes);
  config.topology.storage_nodes =
      divisor(config.topology.io_nodes, config.topology.storage_nodes);
  config.topology.io_cache_bytes = scaled(config.topology.io_cache_bytes);
  config.topology.storage_cache_bytes =
      scaled(config.topology.storage_cache_bytes);
  config.scheme = request.mask == svc::Mask::kIo ? core::Scheme::kInterNodeIoOnly
                  : request.mask == svc::Mask::kStorage
                      ? core::Scheme::kInterNodeStorageOnly
                      : core::Scheme::kInterNode;
  if (request.tier == svc::Tier::kTemplate) {
    config.compile_topology = svc::family_reference(config.topology);
  }
  return config;
}

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed) : seed_(seed) {}
  ~ServeMix() override { finish(); }

  void setup() override {
    SplitMix rng(seed_);
    programs_ = flo::workloads::workload_suite();
    texts_.clear();
    for (const auto& app : programs_) {
      texts_.push_back(flo::testing::emit_flo(app.program));
    }
    keys_.clear();
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      for (const svc::Mask mask : kMasks) {
        KeySpec key;
        key.program = p;
        key.mask = mask;
        key.tier = rng.below(2) == 0 ? svc::Tier::kExact : svc::Tier::kTemplate;
        key.exact_scale = kExactScales[rng.below(kExactScales.size())];
        keys_.push_back(key);
      }
    }
    // Both clients open with every key, in a seeded order that the second
    // client walks backwards: the two workers compile from opposite ends
    // and meet in the middle, so the compile work splits evenly between
    // them whatever the per-key costs. The rest are seeded repeats.
    std::vector<std::size_t> first(keys_.size());
    for (std::size_t p = 0; p < first.size(); ++p) first[p] = p;
    rng.shuffle(first);
    scripts_.assign(kClients, {});
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::size_t n = first.size();
        const std::size_t k = i >= n   ? rng.below(keys_.size())
                              : c == 0 ? first[i]
                                       : first[n - 1 - i];
        const KeySpec& key = keys_[k];
        Sent sent;
        sent.key = k;
        svc::Request& r = sent.request;
        r.id = c * kRequestsPerClient + i + 1;
        r.tenant = "client" + std::to_string(c);
        r.tier = key.tier;
        r.mask = key.mask;
        r.cache_scale = key.tier == svc::Tier::kExact
                            ? key.exact_scale
                            : kMemberScales[rng.below(kMemberScales.size())];
        r.program = texts_[key.program];
        scripts_[c].push_back(std::move(sent));
      }
    }

    server_ = std::make_unique<svc::Server>(server_config());
    for (std::size_t c = 0; c < kClients; ++c) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
        throw std::system_error(errno, std::generic_category(), "socketpair");
      }
      clients_.emplace_back();
      clients_.back().adopt(fds[0]);
      server_fds_.push_back(fds[1]);
      readers_.emplace_back([server = server_.get(), fd = fds[1]] {
        server->serve_fd(fd, fd);
      });
    }
  }

  std::string describe() const override {
    std::string out = "keys";
    for (const KeySpec& k : keys_) {
      out += " " + programs_[k.program].name + ":" + svc::mask_name(k.mask) +
             "/" + svc::tier_name(k.tier);
      if (k.tier == svc::Tier::kExact) {
        char scale[16];
        std::snprintf(scale, sizeof scale, "@%g", k.exact_scale);
        out += scale;
      }
    }
    return out;
  }

  RoundResult run(bool traced) override {
    RoundResult round;
    rtt_ms_.assign(kClients, std::vector<double>(kRequestsPerClient, 0));
    responses_.assign(kClients, std::vector<std::uint64_t>(kRequestsPerClient, 0));
    hits_ = misses_ = 0;
    status_counts_ = {};
    {
      const Stopwatch watch;
      drive(round);
      watch.stop(round);
    }
    collect(round);
    if (traced) {
      LayerValues& l = round.layers;
      l["service.cache.hits"] = static_cast<double>(hits_);
      l["service.cache.misses"] = static_cast<double>(misses_);
      l["service.ok"] = static_cast<double>(status_counts_[0]);
      l["service.shed"] = static_cast<double>(status_counts_[1]);
      l["service.throttled"] = static_cast<double>(status_counts_[2]);
      l["service.error"] = static_cast<double>(status_counts_[3]);
    }
    return round;
  }

  /// Closes the clients (the server readers see EOF), then stops the server.
  void finish() override {
    clients_.clear();
    for (std::thread& t : readers_) t.join();
    readers_.clear();
    for (const int fd : server_fds_) ::close(fd);
    server_fds_.clear();
    server_.reset();
  }

  /// Traced-only passes over the last round's requests: every request
  /// replayed through Server::handle_payload on a fresh server (handling
  /// time without the socket layer, and the heap its cache then holds),
  /// ir::parse_program on every request text, and compile_experiment once
  /// per key, whose plan must be the one the server rendered.
  void after_traced(RoundResult& last) override {
    LayerValues& l = last.layers;
    std::vector<const Sent*> order;
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
      for (std::size_t c = 0; c < kClients; ++c) order.push_back(&scripts_[c][i]);
    }

    std::vector<double> hit_ms, miss_ms, transport_ms;
    std::vector<std::string> served_body(keys_.size());
    {
      const double heap_before = heap_mb();
      svc::Server replay(server_config());
      for (const Sent* sent : order) {
        const std::string payload = svc::serialize_request(sent->request);
        const double start = now_s();
        const std::string reply = replay.handle_payload(payload);
        const double ms = (now_s() - start) * 1e3;
        const svc::Response response = svc::parse_response(reply);
        (response.cache == "miss" ? miss_ms : hit_ms).push_back(ms);
        if (served_body[sent->key].empty()) served_body[sent->key] = response.body;
        const std::size_t c = (sent->request.id - 1) / kRequestsPerClient;
        const std::size_t i = (sent->request.id - 1) % kRequestsPerClient;
        transport_ms.push_back(rtt_ms_[c][i] - ms);
        if (digest_response(response) != responses_[c][i]) {
          last.violations.push_back(
              "request " + std::to_string(sent->request.id) +
              ": handle_payload answer differs from the socket answer");
        }
      }
      // Every compiled object and rendered plan the server's cache keeps.
      l["layout.retained_mb"] = heap_mb() - heap_before;
    }
    l["service.handle_hit_ms_p50"] = median(hit_ms);
    l["service.handle_miss_ms_p50"] = median(miss_ms);
    l["service.transport_ms_p50"] = median(transport_ms);

    std::vector<double> parse_ms;
    for (const Sent* sent : order) {
      const double start = now_s();
      const flo::ir::Program parsed = flo::ir::parse_program(sent->request.program);
      parse_ms.push_back((now_s() - start) * 1e3);
    }
    l["ir.parse_ms_p50"] = median(parse_ms);

    std::vector<double> compile_s;
    std::vector<bool> done(keys_.size(), false);
    for (const Sent* sent : order) {
      if (done[sent->key]) continue;
      done[sent->key] = true;
      const flo::ir::Program parsed = flo::ir::parse_program(sent->request.program);
      const core::ExperimentConfig config = server_side_config(sent->request);
      const double start = now_s();
      const core::CompiledExperiment compiled =
          core::compile_experiment(parsed, config);
      compile_s.push_back(now_s() - start);
      if (compiled.plan.to_string() != served_body[sent->key]) {
        last.violations.push_back(
            "request " + std::to_string(sent->request.id) +
            ": compile_experiment under server_side_config gives another plan "
            "than the server served");
      }
    }
    fill_compile_layers(l, compile_s);
  }

 private:
  /// The closed loop: each client sends its next request only once the
  /// previous answer is in. Latency is send to response, client side.
  void drive(RoundResult& round) {
    std::array<std::size_t, kClients> next{};
    std::array<bool, kClients> inflight{};
    std::array<double, kClients> sent_at{};
    std::size_t outstanding = kClients * kRequestsPerClient;
    while (outstanding > 0) {
      for (std::size_t c = 0; c < kClients; ++c) {
        if (inflight[c] || next[c] >= kRequestsPerClient) continue;
        const svc::Request& request = scripts_[c][next[c]].request;
        sent_at[c] = now_s();
        clients_[c].send_raw(svc::serialize_request(request), kIoTimeoutMs);
        inflight[c] = true;
      }
      std::array<pollfd, kClients> fds{};
      for (std::size_t c = 0; c < kClients; ++c) {
        fds[c] = {inflight[c] ? clients_[c].fd() : -1, POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), kIoTimeoutMs) <= 0) {
        throw std::runtime_error("serve_mix: no response within the I/O timeout");
      }
      for (std::size_t c = 0; c < kClients; ++c) {
        if (!inflight[c] || fds[c].revents == 0) continue;
        const std::optional<std::string> payload =
            clients_[c].recv_raw(16u << 20, kIoTimeoutMs);
        const double done = now_s();
        const std::size_t i = next[c]++;
        inflight[c] = false;
        --outstanding;
        rtt_ms_[c][i] = (done - sent_at[c]) * 1e3;
        round.latencies_ms.push_back(rtt_ms_[c][i]);
        ++round.attempted;
        if (!payload) {
          ++round.failed;
          round.violations.push_back(
              "request " + std::to_string(scripts_[c][i].request.id) +
              ": connection closed before an answer");
          // No further answers can arrive on this connection.
          outstanding -= kRequestsPerClient - next[c];
          next[c] = kRequestsPerClient;
          continue;
        }
        record(c, i, svc::parse_response(*payload), round);
      }
    }
  }

  void record(std::size_t c, std::size_t i, const svc::Response& response,
              RoundResult& round) {
    const Sent& sent = scripts_[c][i];
    ++status_counts_[static_cast<std::size_t>(response.status)];
    const std::string id = "request " + std::to_string(sent.request.id);
    if (response.status != svc::Status::kOk) {
      ++round.failed;
      round.violations.push_back(id + ": " + svc::status_name(response.status) +
                                 " " + response.error);
    } else {
      round.work += 1;
      (response.cache == "miss" ? misses_ : hits_) += 1;
      if (response.tier != svc::tier_name(sent.request.tier)) {
        round.violations.push_back(id + ": served from the " + response.tier +
                                   " tier");
      }
      if (response.body.empty()) round.violations.push_back(id + ": empty plan");
    }
    if (response.id != sent.request.id ||
        response.body_hash != core::hex16(core::fnv1a(sent.request.program))) {
      round.violations.push_back(id + ": answer belongs to another request");
    }
    responses_[c][i] = digest_response(response);
  }

  /// Per-key digests (every answer for a key must be identical) plus one
  /// digest over every answer in request order.
  void collect(RoundResult& round) const {
    Digest sequence;
    std::vector<bool> seen(keys_.size(), false);
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const Sent& sent = scripts_[c][i];
        const std::uint64_t d = responses_[c][i];
        sequence.u64(d);
        char label[16];
        std::snprintf(label, sizeof label, "key%02zu", sent.key);
        if (!seen[sent.key]) {
          seen[sent.key] = true;
          round.outputs.items[label] = d;
        } else if (round.outputs.items[label] != d) {
          round.violations.push_back("request " +
                                     std::to_string(sent.request.id) +
                                     ": answer differs from earlier answers for " +
                                     label);
        }
      }
    }
    round.outputs.items["sequence"] = sequence.value();
  }

  std::uint64_t seed_;
  std::vector<flo::workloads::Workload> programs_;
  std::vector<std::string> texts_;
  std::vector<KeySpec> keys_;
  std::vector<std::vector<Sent>> scripts_;
  std::unique_ptr<svc::Server> server_;
  std::vector<svc::Client> clients_;
  std::vector<int> server_fds_;
  std::vector<std::thread> readers_;
  std::vector<std::vector<double>> rtt_ms_;
  std::vector<std::vector<std::uint64_t>> responses_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::array<std::uint64_t, 4> status_counts_{};
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench

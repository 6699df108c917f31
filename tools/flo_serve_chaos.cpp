// flo_serve_chaos — seeded chaos harness for the flo_serve daemon.
//
//   flo_serve_chaos --server PATH [--seed N] [--clients N] [--tenants N]
//                   [--requests N] [--no-kill] [--dir PATH]
//
// Spawns a real flo_serve process on a temp-dir Unix socket and holds it
// to the service's three robustness invariants:
//
//   1. every client gets a terminal outcome — a typed response
//      (ok/shed/throttled/error) for every well-framed request, or a
//      prompt connection close after a hostile frame; never a hang
//      (any read blocking past the harness timeout is a failure);
//   2. no cross-tenant result leakage — each response must echo the
//      request's id, tenant and body_hash (fnv1a of the program text the
//      client actually sent), and two ok-responses for the same
//      fingerprint must carry identical bodies;
//   3. crash-consistent caching — SIGKILL mid-flight, restart on the same
//      journal, and the warmup program must come back `cache: hit` with a
//      byte-identical body.
//
// The load mix is seeded (util::Rng, default seed 42): ~70% valid
// programs from testing::random_program, plus malformed payloads, bad
// headers, oversized frames, expired deadlines and half-frame stalls.
// Exit 0 when every invariant held, 1 otherwise (with a failure list and
// the server's stderr log path for CI artifact upload).
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/compile_cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "testing/emit.hpp"
#include "testing/generator.hpp"
#include "util/framing.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace flo;

constexpr int kClientTimeoutMs = 10000;  ///< blocking past this = stuck client
constexpr int kServerIoTimeoutMs = 250;  ///< server-side slow-client budget

struct Options {
  std::string server_binary;
  std::uint64_t seed = 42;
  std::size_t clients = 4;
  std::size_t tenants = 3;
  std::size_t requests = 40;  ///< chaos requests per client
  bool kill = true;
  std::string dir;  ///< scratch dir (created if empty)
};

/// Failure collector shared by every client thread.
class Failures {
 public:
  void add(const std::string& message) {
    const std::lock_guard<std::mutex> lock(mutex_);
    messages_.push_back(message);
  }
  std::vector<std::string> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
  }
  bool empty() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return messages_.empty();
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> messages_;
};

/// fingerprint -> body consistency map (leak detector): one compiled
/// fingerprint must always serve one body, no matter which tenant asks.
class BodyLedger {
 public:
  /// Returns an error message on mismatch, empty string otherwise.
  std::string check(const std::string& fingerprint, const std::string& body) {
    if (fingerprint.empty()) return {};
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = bodies_.try_emplace(fingerprint, body);
    if (!fresh && it->second != body) {
      return "fingerprint " + fingerprint +
             " served two different bodies (cross-request corruption)";
    }
    return {};
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> bodies_;
};

struct ServerProcess {
  pid_t pid = -1;
  std::string socket_path;
  std::string journal_path;
  std::string log_path;
};

/// Forks + execs flo_serve on `socket_path`, stderr appended to the log.
ServerProcess spawn_server(const Options& options,
                           const std::string& socket_path,
                           const std::string& journal_path,
                           const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "chaos: fork failed: " << std::strerror(errno) << "\n";
    std::exit(1);
  }
  if (pid == 0) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    // Small queue + short io timeout so overload and slow-client paths
    // actually trigger under a few dozen clients.
    ::execl(options.server_binary.c_str(), options.server_binary.c_str(),
            "--socket", socket_path.c_str(),          //
            "--cache-journal", journal_path.c_str(),  //
            "--workers", "2",                         //
            "--queue-depth", "8",                     //
            "--io-timeout-ms", std::to_string(kServerIoTimeoutMs).c_str(),
            "--max-frame", "65536",  //
            static_cast<char*>(nullptr));
    std::cerr << "chaos: exec " << options.server_binary
              << " failed: " << std::strerror(errno) << "\n";
    ::_exit(127);
  }
  return ServerProcess{pid, socket_path, journal_path, log_path};
}

/// Connects with retries while the daemon starts (or restarts).
bool connect_with_retry(service::Client& client, const std::string& path,
                        int budget_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      client.connect_unix(path);
      return true;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return false;
}

/// True when `pid` exited within `budget_ms`.
bool wait_exit(pid_t pid, int budget_ms, int* status_out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (status_out != nullptr) *status_out = status;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// A tiny fixed program every phase reuses: its fingerprint/body anchor
/// the warmup, the cache-hit assertions and the restart-recovery check.
const char* warmup_program() {
  return "program warmup\n"
         "array A 64 64\n"
         "array B 64 64\n"
         "nest t parallel=1 {\n"
         "  for i1 = 0..63\n"
         "  for i2 = 0..63\n"
         "  read  A[i1, i2]\n"
         "  write B[i2, i1]\n"
         "}\n";
}

service::Request warmup_request(std::uint64_t id) {
  service::Request request;
  request.id = id;
  request.tenant = "warmup";
  request.program = warmup_program();
  return request;
}

/// Verifies the per-response invariants every terminal response must hold.
void check_echo(const service::Request& request,
                const service::Response& response, const char* where,
                Failures& failures, BodyLedger& ledger) {
  const std::string expect_hash =
      core::hex16(core::fnv1a(request.program));
  if (response.id != request.id) {
    failures.add(std::string(where) + ": response id " +
                 std::to_string(response.id) + " != request id " +
                 std::to_string(request.id));
  }
  if (response.tenant != request.tenant) {
    failures.add(std::string(where) + ": response tenant '" +
                 response.tenant + "' != request tenant '" + request.tenant +
                 "' (cross-tenant leak)");
  }
  if (!response.body_hash.empty() && response.body_hash != expect_hash) {
    failures.add(std::string(where) + ": body_hash mismatch for tenant '" +
                 request.tenant + "' (response computed for someone else)");
  }
  if (response.status == service::Status::kOk) {
    const std::string leak = ledger.check(response.fingerprint, response.body);
    if (!leak.empty()) failures.add(std::string(where) + ": " + leak);
  }
}

/// One chaos client: seeded mix of valid and hostile traffic. Reconnects
/// whenever the server (rightly) drops the connection; fails loudly on
/// hangs and invariant violations.
void chaos_client(const Options& options, std::size_t index,
                  const std::string& socket_path, Failures& failures,
                  BodyLedger& ledger, std::atomic<std::uint64_t>& ok_count) {
  util::Rng rng(options.seed * 1000003 + index);
  service::Client client;
  if (!connect_with_retry(client, socket_path, kClientTimeoutMs)) {
    failures.add("client " + std::to_string(index) + ": could not connect");
    return;
  }
  testing::GeneratorOptions gen;
  gen.max_arrays = 2;
  gen.max_nests = 1;
  gen.max_depth = 2;
  gen.max_trip = 6;
  gen.allow_writes = false;

  for (std::size_t n = 0; n < options.requests; ++n) {
    if (!client.connected() &&
        !connect_with_retry(client, socket_path, kClientTimeoutMs)) {
      failures.add("client " + std::to_string(index) +
                   ": reconnect failed mid-run");
      return;
    }
    const std::uint64_t id = (static_cast<std::uint64_t>(index) << 32) | n;
    const std::uint64_t dice = rng.next_below(100);
    const std::string where =
        "client " + std::to_string(index) + " req " + std::to_string(n);
    try {
      if (dice < 70) {
        // Valid request from a random tenant; tiny deadline 1 in 5.
        service::Request request;
        request.id = id;
        request.tenant = "tenant" + std::to_string(rng.next_below(
                                        static_cast<std::uint64_t>(
                                            options.tenants)));
        request.program = testing::emit_flo(testing::random_program(rng, gen));
        request.threads = 4;
        if (rng.next_below(5) == 0) request.deadline_ms = 0.01;
        const std::optional<service::Response> response =
            client.call(request, kClientTimeoutMs);
        if (!response) {
          failures.add(where + ": server closed instead of answering a "
                               "valid request");
          continue;
        }
        check_echo(request, *response, where.c_str(), failures, ledger);
        if (response->status == service::Status::kOk) ok_count.fetch_add(1);
      } else if (dice < 80) {
        // Malformed payload: random bytes, correctly framed. The server
        // must answer `error` and keep the connection.
        std::string garbage;
        const std::uint64_t len = 1 + rng.next_below(64);
        for (std::uint64_t i = 0; i < len; ++i) {
          garbage.push_back(static_cast<char>(rng.next_below(256)));
        }
        client.send_raw(garbage, kClientTimeoutMs);
        const auto payload = client.recv_raw(16u << 20, kClientTimeoutMs);
        if (!payload) {
          client.close();  // server may close on framing-looking garbage
          continue;
        }
        const service::Response response = service::parse_response(*payload);
        if (response.status != service::Status::kError) {
          failures.add(where + ": garbage payload answered with status '" +
                       service::status_name(response.status) + "'");
        }
      } else if (dice < 85) {
        // Valid magic, hostile header.
        client.send_raw("flo-req-v1\nid: not-a-number\n\nx\n",
                        kClientTimeoutMs);
        const auto payload = client.recv_raw(16u << 20, kClientTimeoutMs);
        if (!payload) {
          client.close();
          continue;
        }
        const service::Response response = service::parse_response(*payload);
        if (response.status != service::Status::kError) {
          failures.add(where + ": bad header answered with status '" +
                       service::status_name(response.status) + "'");
        }
      } else if (dice < 90) {
        // Oversized frame (server max-frame is 64 KiB): expect an error
        // response and/or a close — never a hang.
        const std::string big(128 * 1024, 'x');
        try {
          client.send_raw(big, kClientTimeoutMs);
          (void)client.recv_raw(16u << 20, kClientTimeoutMs);
        } catch (const util::FramingError&) {
          // Server closed while we were still writing — acceptable.
        }
        client.close();
      } else {
        // Half a frame, then stall past the server's io timeout: the
        // 4-byte prefix promises 100 bytes, only 10 arrive.
        const std::string prefix{'\0', '\0', '\0', '\x64'};
        client.send_bytes(prefix + std::string(10, 'y'));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kServerIoTimeoutMs * 2));
        try {
          (void)client.recv_raw(16u << 20, kClientTimeoutMs);
        } catch (const util::FramingError&) {
        }
        client.close();  // stream is unsynced either way
      }
    } catch (const util::FramingTimeout&) {
      failures.add(where + ": client blocked past " +
                   std::to_string(kClientTimeoutMs) + " ms (stuck client)");
      return;
    } catch (const util::FramingError&) {
      client.close();  // dropped connection: reconnect next iteration
    } catch (const std::exception& e) {
      failures.add(where + ": unexpected exception: " + e.what());
      client.close();
    }
  }
}

int parse_cli(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "chaos: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // A count is a whole string of decimal digits; a typo exits 2 rather
    // than running as 0.
    const auto count = [&]() -> std::uint64_t {
      const std::string text = value();
      if (const auto v = util::parse_decimal_u64(text)) return *v;
      std::cerr << "chaos: " << arg << ": want a non-negative integer, got '"
                << text << "'\n";
      std::exit(2);
    };
    if (arg == "--server") options.server_binary = value();
    else if (arg == "--seed") options.seed = count();
    else if (arg == "--clients") options.clients = count();
    else if (arg == "--tenants") options.tenants = count();
    else if (arg == "--requests") options.requests = count();
    else if (arg == "--no-kill") options.kill = false;
    else if (arg == "--dir") options.dir = value();
    else {
      std::cerr << "usage: " << argv[0]
                << " --server PATH [--seed N] [--clients N] [--tenants N]"
                   " [--requests N] [--no-kill] [--dir PATH]\n";
      return 2;
    }
  }
  if (options.server_binary.empty()) {
    std::cerr << "chaos: --server PATH is required\n";
    return 2;
  }
  if (options.tenants == 0) options.tenants = 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (const int rc = parse_cli(argc, argv, options); rc != 0) return rc;

  std::string dir = options.dir;
  if (dir.empty()) {
    std::string tmpl = "/tmp/flo_chaos.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::cerr << "chaos: mkdtemp failed: " << std::strerror(errno) << "\n";
      return 1;
    }
    dir = tmpl;
  } else {
    ::mkdir(dir.c_str(), 0755);
  }
  const std::string socket_path = dir + "/flo_serve.sock";
  const std::string journal_path = dir + "/cache.journal";
  const std::string log_path = dir + "/flo_serve.log";
  std::cout << "chaos: seed=" << options.seed << " dir=" << dir << "\n";

  Failures failures;
  BodyLedger ledger;

  ServerProcess server =
      spawn_server(options, socket_path, journal_path, log_path);

  // --- Phase A: warmup + crash recovery -------------------------------
  std::string warm_fingerprint;
  std::string warm_body;
  {
    service::Client client;
    if (!connect_with_retry(client, socket_path, kClientTimeoutMs)) {
      std::cerr << "chaos: FAIL server never came up (log: " << log_path
                << ")\n";
      ::kill(server.pid, SIGKILL);
      return 1;
    }
    try {
      const service::Request request = warmup_request(1);
      const auto first = client.call(request, kClientTimeoutMs);
      if (!first || first->status != service::Status::kOk) {
        failures.add("warmup: first compile did not return ok");
      } else {
        warm_fingerprint = first->fingerprint;
        warm_body = first->body;
        check_echo(request, *first, "warmup", failures, ledger);
        if (first->cache != "miss") {
          failures.add("warmup: fresh daemon reported cache '" +
                       first->cache + "' (expected miss)");
        }
        const auto second = client.call(warmup_request(2), kClientTimeoutMs);
        if (!second || second->status != service::Status::kOk ||
            second->cache != "hit") {
          failures.add("warmup: repeat compile was not a cache hit");
        } else if (second->body != warm_body) {
          failures.add("warmup: cache hit body differs from compiled body");
        }
      }
    } catch (const std::exception& e) {
      failures.add(std::string("warmup: ") + e.what());
    }
  }

  if (options.kill && failures.empty()) {
    // SIGKILL mid-flight: a client with an in-queue request must observe
    // a connection close (not a hang), and the restarted daemon must
    // replay the journal so warmup comes back as a hit.
    service::Client victim;
    if (connect_with_retry(victim, socket_path, kClientTimeoutMs)) {
      try {
        victim.send_raw(serialize_request(warmup_request(3)),
                        kClientTimeoutMs);
      } catch (const std::exception&) {
      }
    }
    ::kill(server.pid, SIGKILL);
    int status = 0;
    if (!wait_exit(server.pid, kClientTimeoutMs, &status)) {
      failures.add("kill: server ignored SIGKILL (unreachable)");
    }
    try {
      const auto orphan = victim.recv_raw(16u << 20, 2000);
      if (orphan) {
        // A response that raced the kill is fine — but it must be ours.
        check_echo(warmup_request(3), service::parse_response(*orphan),
                   "kill-race", failures, ledger);
      }
    } catch (const util::FramingError&) {
      // Closed/truncated mid-kill: the expected outcome.
    } catch (const std::exception& e) {
      failures.add(std::string("kill: victim read: ") + e.what());
    }

    server = spawn_server(options, socket_path, journal_path, log_path);
    service::Client client;
    if (!connect_with_retry(client, socket_path, kClientTimeoutMs)) {
      failures.add("restart: server did not come back on the same journal");
    } else {
      try {
        const auto replay = client.call(warmup_request(4), kClientTimeoutMs);
        if (!replay || replay->status != service::Status::kOk) {
          failures.add("restart: warmup request failed after recovery");
        } else {
          if (replay->cache != "hit") {
            failures.add("restart: journal replay missed (cache '" +
                         replay->cache + "', expected hit)");
          }
          if (replay->body != warm_body) {
            failures.add("restart: replayed body differs from the "
                         "pre-crash compile");
          }
          if (replay->fingerprint != warm_fingerprint) {
            failures.add("restart: replayed fingerprint differs");
          }
        }
      } catch (const std::exception& e) {
        failures.add(std::string("restart: ") + e.what());
      }
    }
  }

  // --- Phase B: seeded concurrent chaos -------------------------------
  std::atomic<std::uint64_t> ok_count{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(options.clients);
    for (std::size_t i = 0; i < options.clients; ++i) {
      clients.emplace_back([&, i] {
        chaos_client(options, i, socket_path, failures, ledger, ok_count);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  // The daemon must have survived the abuse: one more valid request.
  {
    service::Client client;
    if (!connect_with_retry(client, socket_path, kClientTimeoutMs)) {
      failures.add("post-chaos: daemon unreachable");
    } else {
      try {
        const auto last = client.call(warmup_request(99), kClientTimeoutMs);
        if (!last || last->status != service::Status::kOk) {
          failures.add("post-chaos: warmup request no longer succeeds");
        }
      } catch (const std::exception& e) {
        failures.add(std::string("post-chaos: ") + e.what());
      }
    }
  }

  // Graceful shutdown: SIGTERM must exit 0 promptly.
  ::kill(server.pid, SIGTERM);
  int status = 0;
  if (!wait_exit(server.pid, kClientTimeoutMs, &status)) {
    failures.add("shutdown: daemon ignored SIGTERM for 10s");
    ::kill(server.pid, SIGKILL);
    wait_exit(server.pid, kClientTimeoutMs, &status);
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failures.add("shutdown: daemon exit status " + std::to_string(status) +
                 " (expected clean 0)");
  }

  if (ok_count.load() == 0 && options.requests > 0 && options.clients > 0) {
    // Typed errors for every valid program would "pass" the terminal-
    // response invariant while the service is useless — catch that.
    failures.add("chaos: no valid request ever returned ok");
  }

  const std::vector<std::string> messages = failures.take();
  std::cout << "chaos: " << ok_count.load() << " ok responses, "
            << messages.size() << " invariant violations\n";
  if (!messages.empty()) {
    for (const std::string& m : messages) std::cout << "chaos: FAIL " << m << "\n";
    std::cout << "chaos: server log: " << log_path << "\n";
    return 1;
  }
  std::cout << "chaos: PASS\n";
  return 0;
}

// flo_serve's server core: accept loop, bounded admission, worker pool,
// degradation ladder, and the shared persistent RenderedCache (DESIGN.md
// §4h).
//
// Threading model: one reader thread per connection parses frames and runs
// admission inline (throttle/shed responses never wait behind compiles);
// admitted jobs cross a BoundedQueue to a fixed worker pool that compiles
// plans (core::compile_plan, no layouts) through the RenderedCache and
// writes the response back under the connection's write mutex. Every path
// out of a request is a terminal response — ok, shed, throttled, or error
// — and the chaos harness (tools/flo_serve_chaos) exists to falsify that
// claim.
//
// The degradation ladder, in order of preference:
//   1. exact cache hit            — serve immediately;
//   2. exact compile              — when the deadline and queue allow;
//   3. template-family cache hit  — one compile serves the whole family;
//   4. template-family compile    — populates the family for everyone;
//   5. shed with RETRY_AFTER      — the deadline is already gone.
// Steps 3-4 trigger when the request's remaining deadline is tighter than
// twice the live compile-time estimate or the queue is above its pressure
// watermark; the response says so (`tier: template`, `degraded: 1`), so
// the service bends before it breaks — and never silently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/compile_cache.hpp"
#include "service/admission.hpp"
#include "service/protocol.hpp"

namespace flo::service {

struct ServerConfig {
  std::size_t workers = 2;
  std::size_t queue_depth = 64;
  /// Per-tenant token bucket; rate 0 disables throttling.
  double tenant_rate = 0;
  double tenant_burst = 8;
  /// Applied to requests that carry no deadline of their own; 0 = none.
  double default_deadline_ms = 0;
  /// Largest accepted frame payload. An oversized frame is answered with
  /// an error and the connection closes (the stream cannot be resynced).
  std::size_t max_frame = 1 << 20;
  /// Budget for finishing a started frame and for writing responses; a
  /// client that stalls mid-frame is disconnected, not waited on.
  int io_timeout_ms = 5000;
  /// RenderedCache sizing/persistence (capacity 0 = unbounded).
  std::size_t cache_capacity = 256;
  std::string cache_journal;
  /// Queue-pressure watermark (fraction of queue_depth) above which kAuto
  /// requests degrade to the template tier.
  double degrade_queue_fraction = 0.75;
  /// Monotonic seconds; injectable for deterministic quota/deadline tests.
  std::function<double()> clock;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds `socket_path` (unlinking any stale socket first) and serves
  /// until stop()/request_stop(). Throws std::system_error on bind/listen
  /// failure. Removes the socket file on the way out.
  void serve_unix(const std::string& socket_path);

  /// Serves one already-connected stream (stdio mode, tests) until EOF or
  /// stop(). Does not close the fds.
  void serve_fd(int in_fd, int out_fd);

  /// Async-signal-safe shutdown request: a single atomic store. The
  /// accept loop and every blocked reader notice within ~100 ms.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Full shutdown: request_stop + drain the queue + join the workers.
  /// Idempotent; also called by the destructor.
  void stop();

  /// Admission + compile of one raw request payload, bypassing the socket
  /// layer (in-process tests). Returns the serialized response.
  std::string handle_payload(const std::string& payload);

  core::RenderedCache& cache() { return *cache_; }
  const ServerConfig& config() const { return config_; }
  /// Rendered entries restored from the cache journal at startup.
  std::uint64_t journal_replayed() const;

 private:
  struct Conn {
    Conn(int in, int out, bool own) : in_fd(in), out_fd(out), own_fds(own) {}
    ~Conn();
    int in_fd;
    int out_fd;
    bool own_fds;
    std::mutex write_mutex;
  };

  struct Job {
    Request request;
    std::shared_ptr<Conn> conn;  ///< null for handle_payload jobs
    double received = 0;         ///< clock() at admission
    double deadline_abs = 0;     ///< clock() seconds; 0 = none
    std::string body_hash;
  };

  void reader_loop(const std::shared_ptr<Conn>& conn);
  void worker_loop();
  /// Admission for a parsed request; returns a terminal response for
  /// throttled/shed, or nullopt with `job` filled in when admitted (the
  /// caller enqueues).
  std::optional<Response> admit(Request request, std::shared_ptr<Conn> conn,
                                Job& job);
  Response handle(Job& job);
  Response compile_response(Job& job);
  void send(Conn& conn, const Response& response);
  double now() const { return config_.clock(); }
  void set_queue_gauge() const;
  /// Joins finished reader threads (accept-loop housekeeping).
  void reap_readers();
  /// Joins ALL reader threads; swaps the list out first so concurrent
  /// callers (serve_unix exit vs stop()) never double-join.
  void join_readers();

  ServerConfig config_;
  std::shared_ptr<core::RenderedCache> cache_;
  AdmissionController admission_;
  BoundedQueue<Job> queue_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  struct ReaderSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex readers_mutex_;
  std::list<ReaderSlot> readers_;
};

/// The template-family reference of a topology: capacities rescaled so the
/// bottom (storage) cache matches the paper default while preserving the
/// io:storage ratio. Members of one family — same structure, capacities
/// differing by a pure scale factor — map to the same reference, so their
/// compile fingerprints collide by construction and one template compile
/// serves them all (the Section 4.3 scenario).
storage::TopologyConfig family_reference(storage::TopologyConfig topology);

}  // namespace flo::service

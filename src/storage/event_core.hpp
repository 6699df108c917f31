// Discrete-event simulation core (FLO_SIM=event).
//
// Where the clock core advances each thread's private virtual clock through
// a request's *total* latency in one scheduler step, the event core stages
// every block request through the hierarchy as discrete events on a global
// EventQueue: arrive at the I/O node, occupy its cache server, hop to the
// storage node, occupy its server, queue at the disk, complete. Shared
// components therefore model *contention*: each I/O and storage node is a
// FIFO server, each disk dispatches its queued requests with an
// elevator-style (LOOK) head scheduler, and sequential readahead is staged
// asynchronously — free for the requester (it overlaps with compute), but
// the transfer occupies the disk, so contending demand reads pay for it as
// queueing delay.
//
// The engine makes no policy decision and touches no cache. It is a friend
// of HierarchySimulator and calls the request-path hops the clock core
// charges inline (begin_request, io_lookup, storage_faults,
// storage_lookup, storage_hit_done, disk_read_done, fill_io) at its event
// boundaries; what it adds is queueing: one FIFO server per I/O and
// storage node, the disk schedulers, and the readahead frontier. That is
// what makes the equivalence envelope (DESIGN.md §4g) hold by
// construction: with one thread, prefetch off and faults off, no server
// ever queues, the hops run in the clock core's order, and all integer
// per-layer stats are bit-identical (times differ only by how the stage
// sums associate, bounded by ulps — the event-vs-clock fuzz oracle pins
// both properties).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "storage/disk_sched.hpp"
#include "storage/event_queue.hpp"
#include "storage/simulator.hpp"
#include "storage/stats.hpp"
#include "storage/topology.hpp"
#include "storage/trace_source.hpp"

namespace flo::obs {
class Gauge;
}

namespace flo::storage {

class EventEngine {
 public:
  using RunState = HierarchySimulator::RunState;

  /// Borrows the simulator's caches, disks, striping and fault plan, and
  /// the run state of HierarchySimulator::run, which owns both, has reset
  /// the shared state, and drives the phases.
  EventEngine(HierarchySimulator& sim, RunState& run);

  /// Runs the current phase to its end: every primed stream of `run`
  /// issues until drained. The caller aligns the clocks at the barrier.
  void run_phase();

 private:
  using Request = HierarchySimulator::Request;
  using Route = HierarchySimulator::Route;

  /// FIFO cache server of one I/O or storage node: a hit occupies it for
  /// the hit latency, a miss passes through.
  struct Server {
    std::deque<std::uint32_t> wait;  ///< queued threads, arrival order
    bool busy = false;
  };

  /// Per-disk service queue. The queue + sweep state lives in the
  /// pluggable DiskScheduler (disk_sched.hpp): LOOK by default,
  /// fcfs/priority under QosConfig.
  struct DiskState {
    DiskScheduler sched;
    bool busy = false;
    /// The asynchronous-readahead frontier: staging streams blocks under
    /// the head after a demand read departs, so the next dispatch cannot
    /// start before this. Free for the requester (overlaps its compute),
    /// paid as queueing delay by whoever needs the disk next.
    double free_at = 0;
  };

  /// Closed-form fast path for a cache-less, fault-free, single-stream
  /// phase: positions each disk of the stripe cycle once per extent, then
  /// charges the steady per-block cost in one multiplication — O(extents)
  /// instead of O(blocks), with identical integer stats.
  void run_phase_analytic(std::uint32_t thread);

  void issue_block(std::uint32_t thread, double now);
  void arrive_io(std::uint32_t thread, double now);
  void serve_io(std::uint32_t thread, double now);
  void io_done(std::uint32_t thread, double now);
  void arrive_storage(std::uint32_t thread, double now);
  void serve_storage(std::uint32_t thread, double now);
  void storage_done(std::uint32_t thread, double now);
  void enqueue_disk(std::uint32_t thread, double now);
  void dispatch_disk(std::uint32_t thread, double now);
  void disk_done(std::uint32_t thread, double now);
  /// A request leaves the hierarchy: a kIo request first takes its I/O
  /// fill (charged to its completion time), then the thread completes.
  void finish(std::uint32_t thread, double now);
  void complete(std::uint32_t thread, double now);

  /// Returns true when `server` is free to serve `thread` now; otherwise
  /// queues it (FIFO) and returns false.
  bool admit(Server& server, QueueLayerStats& layer, obs::Gauge* gauge,
             std::uint32_t thread, double now);
  /// While `server` is free, pops its next waiter into `thread`, charges
  /// the wait and switches attribution to the waiter's tenant. A hit
  /// re-occupies the server and ends the drain; a miss passes on.
  bool next_waiter(Server& server, QueueLayerStats& layer, obs::Gauge* gauge,
                   double now, std::uint32_t& thread);

  void note_depth(obs::Gauge* gauge, std::size_t depth);
  void charge_wait(QueueLayerStats& layer, double waited);

  HierarchySimulator& sim_;
  RunState& run_;  ///< clocks are per-thread completion clocks
  SimulationResult& result_;  ///< run_.result
  bool analytic_ = false;     ///< run_phase_analytic applies
  EventQueue queue_;
  std::vector<Request> req_;  ///< indexed by thread

  std::vector<Server> io_;       ///< one per I/O node
  std::vector<Server> storage_;  ///< one per storage node
  std::vector<DiskState> disk_;

  /// Queue-depth gauges (null when obs is disabled): last-writer-wins
  /// indicative values, never compared by tests.
  obs::Gauge* io_depth_gauge_ = nullptr;
  obs::Gauge* storage_depth_gauge_ = nullptr;
  obs::Gauge* disk_depth_gauge_ = nullptr;
};

}  // namespace flo::storage

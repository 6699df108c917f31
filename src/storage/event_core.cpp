#include "storage/event_core.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace flo::storage {

EventEngine::EventEngine(HierarchySimulator& sim, RunState& run)
    : sim_(sim), run_(run), result_(run.result) {
  const auto& cfg = sim_.topology_.config();
  // The closed-form phase path is exact only when nothing is
  // state-dependent per block: no cache (either level), no fault decision
  // stream, no write-back marking, no KARMA range classes. These are the
  // same exclusions the clock core's extent fast path makes, minus the
  // scheduler budget — which a single stream never contends for.
  analytic_ = !cfg.io_cache_enabled && !cfg.storage_cache_enabled &&
              !sim_.faults_.enabled() && !cfg.model_writes &&
              sim_.policy_ != PolicyKind::kKarma;
  req_.assign(run_.clock.size(), Request{});
  io_.assign(cfg.io_nodes, Server{});
  storage_.assign(cfg.storage_nodes, Server{});
  disk_.assign(cfg.storage_nodes, DiskState{});
  // Disk scheduling policy: QosConfig selects it; disabled QoS keeps the
  // default-constructed LOOK scheduler (bit-identical to the original
  // inline elevator).
  if (cfg.qos.enabled) {
    for (DiskState& d : disk_) {
      d.sched = DiskScheduler(cfg.qos.scheduler, cfg.qos.sched_window);
    }
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    io_depth_gauge_ = &reg.gauge("sim.event.queue_depth.io");
    storage_depth_gauge_ = &reg.gauge("sim.event.queue_depth.storage");
    disk_depth_gauge_ = &reg.gauge("sim.event.queue_depth.disk");
  }
}

void EventEngine::note_depth(obs::Gauge* gauge, std::size_t depth) {
  if (gauge) gauge->set(static_cast<std::int64_t>(depth));
}

void EventEngine::charge_wait(QueueLayerStats& layer, double waited) {
  ++layer.waits;
  layer.wait_time += waited;
}

bool EventEngine::admit(Server& server, QueueLayerStats& layer,
                        obs::Gauge* gauge, std::uint32_t thread, double now) {
  if (!server.busy) return true;
  req_[thread].arrival = now;
  server.wait.push_back(thread);
  layer.max_depth = std::max<std::uint64_t>(layer.max_depth,
                                            server.wait.size());
  note_depth(gauge, server.wait.size());
  return false;
}

bool EventEngine::next_waiter(Server& server, QueueLayerStats& layer,
                              obs::Gauge* gauge, double now,
                              std::uint32_t& thread) {
  if (server.busy || server.wait.empty()) return false;
  thread = server.wait.front();
  server.wait.pop_front();
  charge_wait(layer, now - req_[thread].arrival);
  note_depth(gauge, server.wait.size());
  // The drained waiter's lookups/hits belong to its own tenant.
  sim_.attribute(thread, result_);
  return true;
}

void EventEngine::run_phase_analytic(std::uint32_t thread) {
  sim_.attribute(thread, result_);
  CursorPump& pump = run_.pumps[thread];
  const auto& cfg = sim_.topology_.config();
  const std::uint32_t cycle =
      static_cast<std::uint32_t>(sim_.striping_.storage_nodes());
  double now = run_.clock[thread];
  double busy_acc = 0;
  do {
    AccessEvent& ev = pump.head();
    // A hand-built run_blocks == 0 event degrades to one block, like the
    // clock scheduler's reference loop.
    const std::uint64_t run = ev.run_blocks == 0 ? 1 : ev.run_blocks;
    double t1 = cfg.latency.cpu_per_element *
                static_cast<double>(ev.element_count);
    t1 += sim_.network_.compute_io_hop();
    // Position each disk of the stripe cycle once; every later block lands
    // on an already-positioned head (round-robin striping puts per-node
    // LBAs one apart) and costs the identical hop + pure-transfer double.
    std::uint64_t m = 0;
    for (; m < run && m < cycle; ++m) {
      const BlockKey key{ev.file, ev.block + m};
      const NodeId node = sim_.striping_.storage_node_of(key);
      double dt = t1 + sim_.network_.io_storage_hop();
      dt += sim_.disks_.service(node, sim_.striping_.lba_of(key));
      now += dt;
      busy_acc += dt;
    }
    if (m < run) {
      // The steady tail in one multiplication — this is what makes the
      // phase O(extents) instead of O(blocks). Identical integer stats;
      // the time differs from per-block summation only in FP association,
      // inside the event≡clock tolerance envelope.
      const double dt = t1 + sim_.network_.io_storage_hop() +
                        sim_.disks_.sequential_transfer();
      const double total = dt * static_cast<double>(run - m);
      now += total;
      busy_acc += total;
      sim_.settle_stream(ev.file, ev.block + m, run - m);
    }
    result_.accesses += run;
    result_.elements += ev.element_count * run;
    result_.disk_reads += run;
  } while (pump.refill());
  run_.clock[thread] = now;
  run_.busy[thread] += busy_acc;
}

void EventEngine::issue_block(std::uint32_t thread, double now) {
  AccessEvent& ev = run_.pumps[thread].head();
  Request& r = req_[thread];
  const double front = sim_.begin_request(thread, now, ev, r, result_);
  // Consume the block from the buffered extent (run_blocks == 0 degrades
  // to one block; completion refills once the extent is drained).
  ++ev.block;
  if (ev.run_blocks != 0) --ev.run_blocks;
  if (r.route == Route::kIo || r.route == Route::kKarmaIo) {
    queue_.push(now + front, EventKind::kIoArrive, thread);
  } else {
    queue_.push(now + front + sim_.network_.io_storage_hop(),
                EventKind::kStorageArrive, thread);
  }
}

void EventEngine::arrive_io(std::uint32_t thread, double now) {
  if (admit(io_[req_[thread].io], result_.queue.io, io_depth_gauge_, thread,
            now)) {
    serve_io(thread, now);
  }
}

void EventEngine::serve_io(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  if (sim_.io_lookup(r, result_)) {
    io_[r.io].busy = true;
    queue_.push(now + sim_.topology_.config().latency.io_cache_hit,
                EventKind::kIoDone, thread);
    return;
  }
  // Miss: the cache server does no work; forward down the hierarchy.
  queue_.push(now + sim_.network_.io_storage_hop(), EventKind::kStorageArrive,
              thread);
}

void EventEngine::io_done(std::uint32_t thread, double now) {
  Server& server = io_[req_[thread].io];
  server.busy = false;
  std::uint32_t w = 0;
  while (next_waiter(server, result_.queue.io, io_depth_gauge_, now, w)) {
    serve_io(w, now);
  }
  complete(thread, now);
}

void EventEngine::arrive_storage(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  if (!r.faults_resolved) {
    r.faults_resolved = true;
    double delay = 0;
    sim_.storage_faults(r, delay, result_);
    if (delay > 0) {
      // Wait out the retries, then re-arrive.
      queue_.push(now + delay, EventKind::kStorageArrive, thread);
      return;
    }
  }
  if (r.bypass) {
    enqueue_disk(thread, now);
    return;
  }
  if (admit(storage_[r.node], result_.queue.storage, storage_depth_gauge_,
            thread, now)) {
    serve_storage(thread, now);
  }
}

void EventEngine::serve_storage(std::uint32_t thread, double now) {
  const Request& r = req_[thread];
  if (sim_.storage_lookup(r, result_)) {
    storage_[r.node].busy = true;
    queue_.push(now + sim_.topology_.config().latency.storage_cache_hit,
                EventKind::kStorageDone, thread);
    return;
  }
  enqueue_disk(thread, now);
}

void EventEngine::storage_done(std::uint32_t thread, double now) {
  const Request& r = req_[thread];
  sim_.storage_hit_done(r, result_);
  Server& server = storage_[r.node];
  server.busy = false;
  std::uint32_t w = 0;
  while (next_waiter(server, result_.queue.storage, storage_depth_gauge_, now,
                     w)) {
    serve_storage(w, now);
  }
  finish(thread, now);
}

void EventEngine::enqueue_disk(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  if (!d.busy) {
    dispatch_disk(thread, now);
    return;
  }
  r.arrival = now;
  d.sched.push(r.lba, thread, now, sim_.partitioner_.priority(thread));
  result_.queue.disk.max_depth =
      std::max<std::uint64_t>(result_.queue.disk.max_depth, d.sched.size());
  note_depth(disk_depth_gauge_, d.sched.size());
}

void EventEngine::dispatch_disk(std::uint32_t thread, double now) {
  const Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  // An in-progress readahead transfer holds the disk: the demand read
  // waits for the staging frontier (charged as disk queueing).
  double start = now;
  if (d.free_at > start) {
    charge_wait(result_.queue.disk, d.free_at - start);
    start = d.free_at;
  }
  d.busy = true;
  // Fault decisions draw at dispatch time, in queue order — deterministic,
  // though the draw order differs from the clock core under contention.
  const double svc = sim_.disk_read(r.node, r.lba, result_);
  queue_.push(start + svc, EventKind::kDiskDone, thread);
}

void EventEngine::disk_done(std::uint32_t thread, double now) {
  const Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  // Asynchronous readahead: staged blocks stream under the already-
  // positioned head while the requester departs, so staging is free for
  // the requester (it overlaps with its compute) — but the transfer
  // occupies the disk, pushing the staging frontier (free_at) forward.
  // Whoever needs this disk next pays the remainder as queueing delay.
  const std::uint64_t staged_before = result_.prefetches;
  sim_.disk_read_done(r, result_);
  const std::uint64_t staged = result_.prefetches - staged_before;
  if (staged > 0) {
    d.free_at = now + static_cast<double>(staged) *
                          sim_.disks_.sequential_transfer();
  }
  // Release the disk and hand the queue to the scheduling policy (LOOK by
  // default — the elevator continues its sweep from the head position).
  d.busy = false;
  if (!d.sched.empty()) {
    const std::uint32_t w = d.sched.pop(sim_.disks_.head(r.node));
    charge_wait(result_.queue.disk, now - req_[w].arrival);
    note_depth(disk_depth_gauge_, d.sched.size());
    dispatch_disk(w, now);
  }
  finish(thread, now);
}

void EventEngine::finish(std::uint32_t thread, double now) {
  const Request& r = req_[thread];
  if (r.route == Route::kIo) {
    // A drain loop in the caller may have switched attribution to a
    // waiter; the fill belongs to the completing request's tenant.
    sim_.attribute(thread, result_);
    sim_.fill_io(r, now, result_);
  }
  complete(thread, now);
}

void EventEngine::complete(std::uint32_t thread, double now) {
  run_.busy[thread] += now - req_[thread].issue;
  run_.clock[thread] = now;
  CursorPump& pump = run_.pumps[thread];
  if (pump.exhausted() && !pump.refill()) return;  // stream drained
  queue_.push(now, EventKind::kThreadIssue, thread);
}

void EventEngine::run_phase() {
  if (analytic_ && run_.active.size() <= 1) {
    // Closed-form fast path: no contention is possible, so the event
    // machinery would only re-derive the clock core's sums per block.
    if (!run_.active.empty()) run_phase_analytic(run_.active.front());
    return;
  }
  for (std::uint32_t t : run_.active) {
    queue_.push(run_.clock[t], EventKind::kThreadIssue, t);
  }
  while (!queue_.empty()) {
    const Event e = queue_.pop();
    sim_.attribute(e.a, result_);
    switch (e.kind) {
      case EventKind::kThreadIssue: issue_block(e.a, e.time); break;
      case EventKind::kIoArrive: arrive_io(e.a, e.time); break;
      case EventKind::kIoDone: io_done(e.a, e.time); break;
      case EventKind::kStorageArrive: arrive_storage(e.a, e.time); break;
      case EventKind::kStorageDone: storage_done(e.a, e.time); break;
      case EventKind::kDiskDone: disk_done(e.a, e.time); break;
    }
  }
}

}  // namespace flo::storage

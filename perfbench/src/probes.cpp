#include "probes.hpp"

#include <algorithm>
#include <chrono>

#include "core/io_lower_bound.hpp"
#include "storage/simulator.hpp"
#include "trace/analysis.hpp"
#include "trace/source.hpp"

namespace perfbench {

namespace fs = flo::storage;

void SimTrace::add(const SimTrace& other) {
  trace_ns += other.trace_ns;
  extents += other.extents;
  blocks += other.blocks;
  run_s += other.run_s;
  profile_s += other.profile_s;
  bound_s += other.bound_s;
  passes += other.passes;
  sims += other.sims;
}

namespace {

class TimedCursor final : public fs::ThreadCursor {
 public:
  TimedCursor(std::unique_ptr<fs::ThreadCursor> inner, SimTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  bool next(fs::AccessEvent& out) override {
    const auto start = std::chrono::steady_clock::now();
    const bool more = inner_->next(out);
    trace_.trace_ns += (std::chrono::steady_clock::now() - start).count();
    if (more) {
      ++trace_.extents;
      trace_.blocks += out.run_blocks;
    }
    return more;
  }

 private:
  std::unique_ptr<fs::ThreadCursor> inner_;
  SimTrace& trace_;
};

}  // namespace

std::unique_ptr<fs::ThreadCursor> TimedSource::open(std::size_t phase,
                                                    std::uint32_t thread) const {
  return std::make_unique<TimedCursor>(inner_.open(phase, thread), trace_);
}

std::vector<fs::NodeId> io_nodes_of_threads(
    const flo::parallel::ParallelSchedule& schedule,
    const fs::StorageTopology& topology) {
  std::vector<fs::NodeId> out(schedule.thread_count());
  for (flo::parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    out[t] = topology.io_node_of(schedule.mapping().node_of(t));
  }
  return out;
}

fs::SimulationResult traced_simulate(const flo::ir::Program& program,
                                     const flo::core::CompiledExperiment& compiled,
                                     const flo::core::ExperimentConfig& config,
                                     SimTrace& trace) {
  const fs::StorageTopology topology(config.topology);
  const std::vector<fs::NodeId> io_nodes =
      io_nodes_of_threads(compiled.schedule, topology);
  flo::trace::TraceOptions options;
  options.emit_extents = fs::extents_enabled();
  const flo::trace::StreamingTraceSource source(
      program, compiled.schedule, compiled.layouts, topology, options);

  std::vector<fs::RangeHint> hints;
  if (config.policy == fs::PolicyKind::kKarma) {
    const std::uint64_t segment =
        std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
    const double start = now_s();
    hints = flo::trace::profile_range_hints(source, segment);
    trace.profile_s += now_s() - start;
    ++trace.passes;
  }
  fs::HierarchySimulator simulator(topology, config.policy, io_nodes,
                                   std::move(hints));
  simulator.set_core(config.sim_core);
  const TimedSource timed(source, trace);
  double start = now_s();
  fs::SimulationResult result = simulator.run(timed);
  trace.run_s += now_s() - start;

  start = now_s();
  const flo::core::IoBound bound = flo::core::compute_io_lower_bound(
      source, io_nodes, topology, config.policy);
  trace.bound_s += now_s() - start;
  ++trace.passes;
  ++trace.sims;
  result.io_bound_bytes = bound.io_bound_bytes;
  result.storage_bound_bytes = bound.storage_bound_bytes;
  return result;
}

void fill_compile_layers(LayerValues& out, const std::vector<double>& compile_s) {
  double total = 0;
  for (const double s : compile_s) total += s;
  out["layout.compiles"] = static_cast<double>(compile_s.size());
  out["layout.compile_s"] = total;
  out["layout.compile_p50_ms"] = median(compile_s) * 1e3;
}

void fill_sim_layers(LayerValues& out, const SimTrace& trace,
                     const std::vector<const fs::SimulationResult*>& results) {
  const double trace_s = static_cast<double>(trace.trace_ns) * 1e-9;
  const double storage_s = trace.run_s - trace_s;
  double accesses = 0, io_lookups = 0, io_hits = 0, st_lookups = 0,
         st_hits = 0, disk_reads = 0, disk_writes = 0, writebacks = 0,
         demotions = 0, prefetches = 0, waits = 0, wait_vs = 0;
  for (const fs::SimulationResult* r : results) {
    accesses += static_cast<double>(r->accesses);
    io_lookups += static_cast<double>(r->io.lookups);
    io_hits += static_cast<double>(r->io.hits);
    st_lookups += static_cast<double>(r->storage.lookups);
    st_hits += static_cast<double>(r->storage.hits);
    disk_reads += static_cast<double>(r->disk_reads);
    disk_writes += static_cast<double>(r->disk_writes);
    writebacks += static_cast<double>(r->writebacks);
    demotions += static_cast<double>(r->demotions);
    prefetches += static_cast<double>(r->prefetches);
    for (const fs::QueueLayerStats* q :
         {&r->queue.io, &r->queue.storage, &r->queue.disk}) {
      waits += static_cast<double>(q->waits);
      wait_vs += q->wait_time;
    }
  }
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  out["trace.s"] = trace_s;
  out["trace.extents"] = static_cast<double>(trace.extents);
  out["trace.blocks"] = static_cast<double>(trace.blocks);
  out["trace.blocks_per_extent"] =
      ratio(static_cast<double>(trace.blocks), static_cast<double>(trace.extents));
  out["trace.ns_per_block"] =
      ratio(trace_s * 1e9, static_cast<double>(trace.blocks));
  out["trace.profile_s"] = trace.profile_s;
  out["storage.s"] = storage_s;
  out["storage.ns_per_block"] = ratio(storage_s * 1e9, accesses);
  out["storage.accesses"] = accesses;
  out["storage.io.lookups"] = io_lookups;
  out["storage.io.hit_ratio"] = ratio(io_hits, io_lookups);
  out["storage.st.lookups"] = st_lookups;
  out["storage.st.hit_ratio"] = ratio(st_hits, st_lookups);
  out["storage.disk_reads"] = disk_reads;
  out["storage.disk_writes"] = disk_writes;
  out["storage.writebacks"] = writebacks;
  out["storage.demotions"] = demotions;
  out["storage.prefetches"] = prefetches;
  out["storage.queue.waits"] = waits;
  out["storage.queue.wait_vs"] = wait_vs;
  out["bound.s"] = trace.bound_s;
  out["bound.passes"] = ratio(static_cast<double>(trace.passes),
                              static_cast<double>(trace.sims));
}

}  // namespace perfbench

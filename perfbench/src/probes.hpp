// Timers the traced rounds place around the library's public entry points.
// No span lives inside src/: a simulation is rebuilt here from the same
// public pieces core::simulate_experiment composes (streaming trace, KARMA
// hint pass, HierarchySimulator::run, compute_io_lower_bound), with a
// TraceSource decorator that splits trace time out of the simulator run.
//
// traced_simulate is a frozen copy of simulate_experiment: trace.*,
// storage.s and bound.* describe the copy, so it must be re-synced whenever
// simulate_experiment changes (a fused trace pass, say). The digest check
// catches a change in results; the workloads' overhead bands catch a change
// in cost large enough to leave them.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "storage/trace_source.hpp"

namespace perfbench {

/// Host time and work counted by the traced simulation path.
struct SimTrace {
  std::int64_t trace_ns = 0;  ///< inside ThreadCursor::next during run()
  std::uint64_t extents = 0;  ///< events the simulator pulled
  std::uint64_t blocks = 0;   ///< blocks those events cover
  double run_s = 0;           ///< HierarchySimulator::run, trace included
  double profile_s = 0;       ///< KARMA hint pass
  double bound_s = 0;         ///< compute_io_lower_bound
  std::uint64_t passes = 0;   ///< trace passes outside the simulator
  std::uint64_t sims = 0;     ///< simulations delivered

  void add(const SimTrace& other);
};

/// Forwards to `inner`, timing every ThreadCursor::next into `trace`.
/// Single-threaded: one decorator per simulation.
class TimedSource final : public flo::storage::TraceSource {
 public:
  TimedSource(const flo::storage::TraceSource& inner, SimTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::size_t phase_count() const override { return inner_.phase_count(); }
  std::uint32_t phase_repeat(std::size_t phase) const override {
    return inner_.phase_repeat(phase);
  }
  std::size_t thread_count() const override { return inner_.thread_count(); }
  const std::vector<std::uint64_t>& file_blocks() const override {
    return inner_.file_blocks();
  }
  std::unique_ptr<flo::storage::ThreadCursor> open(
      std::size_t phase, std::uint32_t thread) const override;

 private:
  const flo::storage::TraceSource& inner_;
  SimTrace& trace_;
};

/// I/O node of every simulator thread, as the experiment runner derives it.
std::vector<flo::storage::NodeId> io_nodes_of_threads(
    const flo::parallel::ParallelSchedule& schedule,
    const flo::storage::StorageTopology& topology);

/// The streaming-trace half of core::simulate_experiment with a timer
/// around each layer call. Results are bit-identical to the library path;
/// the traced-run digest check holds it to that.
flo::storage::SimulationResult traced_simulate(
    const flo::ir::Program& program, const flo::core::CompiledExperiment& compiled,
    const flo::core::ExperimentConfig& config, SimTrace& trace);

/// layout.compiles, layout.compile_s and layout.compile_p50_ms from the
/// durations (seconds) of the compile_experiment calls a round made.
void fill_compile_layers(LayerValues& out, const std::vector<double>& compile_s);

/// trace.*, storage.* and bound.* metrics from the traced timers plus the
/// simulated counters of every result the round delivered.
void fill_sim_layers(LayerValues& out, const SimTrace& trace,
                     const std::vector<const flo::storage::SimulationResult*>&
                         results);

}  // namespace perfbench

#include "core/experiment.hpp"

#include <iostream>
#include <stdexcept>

#include "baselines/computation_mapping.hpp"
#include "baselines/dimension_reindexing.hpp"
#include "core/io_lower_bound.hpp"
#include "layout/canonical.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "trace/analysis.hpp"
#include "trace/generator.hpp"
#include "trace/source.hpp"
#include "util/parse.hpp"

namespace flo::core {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDefault:
      return "default";
    case Scheme::kInterNode:
      return "inter-node";
    case Scheme::kInterNodeIoOnly:
      return "inter-node (I/O layer only)";
    case Scheme::kInterNodeStorageOnly:
      return "inter-node (storage layer only)";
    case Scheme::kComputationMapping:
      return "computation mapping [26]";
    case Scheme::kDimensionReindexing:
      return "dimension reindexing [27]";
  }
  return "?";
}

namespace {

std::vector<storage::NodeId> io_nodes_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology) {
  std::vector<storage::NodeId> out(schedule.thread_count());
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    out[t] = topology.io_node_of(schedule.mapping().node_of(t));
  }
  return out;
}

/// Simulates one (schedule, layouts) pair under the configured policy,
/// via either the streaming or the eager trace path.
storage::SimulationResult simulate(const ir::Program& program,
                                   const parallel::ParallelSchedule& schedule,
                                   const layout::LayoutMap& layouts,
                                   const storage::StorageTopology& topology,
                                   const ExperimentConfig& config) {
  // KARMA's application hints: access densities of file segments, one
  // eighth of an I/O cache each (profiling pass, Section 5.4).
  const std::uint64_t segment =
      std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
  const bool karma = config.policy == storage::PolicyKind::kKarma;
  std::vector<storage::RangeHint> hints;

  // The I/O lower bound (core/io_lower_bound.hpp) depends only on the
  // trace footprint, the capacities, and the policy — attach it to the
  // result here so both trace paths (and every caller: benches, the
  // service, flo_opt) report achieved vs. bound identically.
  const auto attach_bound = [&](storage::SimulationResult result,
                                const storage::TraceSource& source) {
    const IoBound bound = compute_io_lower_bound(
        source, io_nodes_of_threads(schedule, topology), topology,
        config.policy);
    result.io_bound_bytes = bound.io_bound_bytes;
    result.storage_bound_bytes = bound.storage_bound_bytes;
    return result;
  };

  if (config.trace == TraceMode::kEager) {
    const storage::TraceProgram trace =
        trace::generate_trace(program, schedule, layouts, topology);
    if (karma) hints = trace::profile_range_hints(trace, segment);
    storage::HierarchySimulator simulator(
        topology, config.policy, io_nodes_of_threads(schedule, topology),
        std::move(hints));
    simulator.set_core(config.sim_core);
    return attach_bound(simulator.run(trace),
                        storage::MaterializedTraceSource(trace));
  }

  // Extent emission follows the FLO_EXTENTS knob: the expanded stream is
  // identical, so this only selects the simulator's batched fast path.
  trace::TraceOptions trace_options;
  trace_options.emit_extents = storage::extents_enabled();
  const trace::StreamingTraceSource source(program, schedule, layouts,
                                           topology, trace_options);
  // The streaming profiling pass regenerates the trace (CPU for memory);
  // the hints are identical to the eager ones.
  if (karma) hints = trace::profile_range_hints(source, segment);
  storage::HierarchySimulator simulator(
      topology, config.policy, io_nodes_of_threads(schedule, topology),
      std::move(hints));
  simulator.set_core(config.sim_core);
  return attach_bound(simulator.run(source), source);
}

bool is_internode(Scheme scheme) {
  return scheme == Scheme::kInterNode || scheme == Scheme::kInterNodeIoOnly ||
         scheme == Scheme::kInterNodeStorageOnly;
}

/// The optimizer options an inter-node scheme compiles under.
OptimizerOptions optimizer_options(const ExperimentConfig& config) {
  OptimizerOptions options;
  options.mask = config.scheme == Scheme::kInterNodeIoOnly
                     ? layout::LayerMask::kIoOnly
                 : config.scheme == Scheme::kInterNodeStorageOnly
                     ? layout::LayerMask::kStorageOnly
                     : layout::LayerMask::kBoth;
  options.partitioning.weighted = !config.unweighted_step1;
  options.solver = config.solver;
  return options;
}

/// What every compile checks and derives first: the simulated topology,
/// one thread per compute node, the topology Step II compiles against
/// (Section 4.3's template-hierarchy runs name the family's reference
/// topology), and the schedule.
struct CompileInputs {
  storage::StorageTopology topology;
  storage::StorageTopology compile_topology;
  parallel::ParallelSchedule schedule;
};

CompileInputs compile_inputs(const ir::Program& program,
                             const ExperimentConfig& config) {
  storage::StorageTopology topology(config.topology);
  if (config.threads != config.topology.compute_nodes) {
    throw std::invalid_argument(
        "run_experiment: one thread per compute node is assumed");
  }
  storage::StorageTopology compile_topology(
      config.compile_topology.value_or(config.topology));
  return {std::move(topology), std::move(compile_topology),
          parallel::ParallelSchedule(program, config.threads, config.mapping)};
}

/// The span every compile opens.
obs::SpanArgs compile_span_args(const ir::Program& program,
                                const ExperimentConfig& config) {
  return obs::enabled() ? obs::SpanArgs{{"program", program.name()},
                                        {"scheme", scheme_name(config.scheme)}}
                        : obs::SpanArgs{};
}

}  // namespace

CompiledExperiment compile_experiment(const ir::Program& program,
                                      const ExperimentConfig& config) {
  const obs::ScopedSpan span("compile.experiment", "compile",
                             compile_span_args(program, config));
  CompileInputs in = compile_inputs(program, config);
  const storage::StorageTopology& topology = in.topology;
  CompiledExperiment out{std::move(in.schedule), {}, {}, 0};

  switch (config.scheme) {
    case Scheme::kDefault: {
      out.layouts = layout::default_layouts(program);
      break;
    }
    case Scheme::kInterNode:
    case Scheme::kInterNodeIoOnly:
    case Scheme::kInterNodeStorageOnly: {
      const FileLayoutOptimizer optimizer(std::move(in.compile_topology));
      OptimizationResult opt = optimizer.optimize(program, out.schedule,
                                                  optimizer_options(config));
      out.plan = std::move(opt.plan);
      out.layouts = std::move(opt.layouts);
      break;
    }
    case Scheme::kComputationMapping: {
      out.layouts = layout::default_layouts(program);
      out.schedule = baselines::apply_computation_mapping(
          program, out.schedule, out.layouts, topology);
      break;
    }
    case Scheme::kDimensionReindexing: {
      std::size_t runs = 0;
      const auto profiler = [&](const layout::LayoutMap& candidate) {
        ++runs;
        return simulate(program, out.schedule, candidate, topology, config)
            .exec_time;
      };
      baselines::ReindexResult reindex =
          baselines::apply_dimension_reindexing(program, profiler);
      out.profiler_runs = runs;
      out.layouts = std::move(reindex.layouts);
      break;
    }
  }
  if (obs::enabled() && out.profiler_runs != 0) {
    obs::registry().counter("sim.profiler_runs").add(out.profiler_runs);
  }
  return out;
}

layout::ProgramTransformPlan compile_plan(const ir::Program& program,
                                          const ExperimentConfig& config) {
  const obs::ScopedSpan span("compile.experiment", "compile",
                             compile_span_args(program, config));
  CompileInputs in = compile_inputs(program, config);
  if (!is_internode(config.scheme)) return {};
  const FileLayoutOptimizer optimizer(std::move(in.compile_topology));
  return optimizer.plan(program, in.schedule, optimizer_options(config));
}

storage::SimulationResult simulate_experiment(
    const ir::Program& program, const CompiledExperiment& compiled,
    const ExperimentConfig& config) {
  const storage::StorageTopology topology(config.topology);
  storage::SimulationResult result =
      simulate(program, compiled.schedule, compiled.layouts, topology, config);
  // Per-layer hit/miss/bytes/fault counters flow into the registry here —
  // once per experiment cell, never for the reindexing profiler's internal
  // candidate sims (those are tallied as sim.profiler_runs instead).
  storage::publish_to_registry(result);
  return result;
}

ExperimentResult run_experiment(const ir::Program& program,
                                const ExperimentConfig& config) {
  const CompiledExperiment compiled = compile_experiment(program, config);
  ExperimentResult result;
  result.sim = simulate_experiment(program, compiled, config);
  result.plan = compiled.plan;
  result.profiler_runs = compiled.profiler_runs;
  return result;
}

bool check_knobs(const char* program, void (*more)()) {
  try {
    (void)storage::sim_core_from_env();
    (void)storage::extents_enabled();
    (void)solver_from_env();
    (void)storage::qos_config_from_env();
    (void)storage::fault_config_from_env();
    (void)obs::sink_mode_from_env();
    if (more != nullptr) more();
  } catch (const util::KnobError& err) {
    std::cerr << program << ": " << err.what() << '\n';
    return false;
  }
  return true;
}

}  // namespace flo::core

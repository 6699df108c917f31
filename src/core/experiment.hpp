// ExperimentRunner — one-call "simulate application X under scheme Y",
// shared by every bench binary and the examples.
//
// An experiment cell splits into two halves:
//   compile_experiment  — schedule the program and derive the scheme's
//                         file layouts (the expensive, shareable part);
//   simulate_experiment — stream the trace through the hierarchy
//                         simulator under the configured policy.
// run_experiment composes the two; the ExperimentEngine (core/engine.hpp)
// calls them separately so cells that share a compilation (e.g. the same
// scheme under several cache policies) compute it once.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/optimizer.hpp"
#include "ir/program.hpp"
#include "parallel/thread_mapping.hpp"
#include "storage/policy.hpp"
#include "storage/sim_core.hpp"
#include "storage/stats.hpp"
#include "storage/topology.hpp"

namespace flo::core {

/// The layout/scheduling schemes compared in the paper's evaluation.
enum class Scheme {
  kDefault,               ///< original row-major layouts (Table 2 baseline)
  kInterNode,             ///< this paper (Fig. 7(a) "inter")
  kInterNodeIoOnly,       ///< Fig. 7(f), first bar
  kInterNodeStorageOnly,  ///< Fig. 7(f), second bar
  kComputationMapping,    ///< [26], Fig. 7(g) first bar
  kDimensionReindexing,   ///< [27], Fig. 7(g) second bar
};

const char* scheme_name(Scheme scheme);

/// How the simulator obtains the trace events.
enum class TraceMode {
  kStreaming,  ///< lazy per-thread cursors, O(threads) resident state
  kEager,      ///< materialize the full TraceProgram first (legacy path)
};

struct ExperimentConfig {
  storage::TopologyConfig topology = storage::TopologyConfig::paper_default();
  std::size_t threads = 64;  ///< one per compute node, as in the paper
  parallel::MappingKind mapping = parallel::MappingKind::kIdentity;
  storage::PolicyKind policy = storage::PolicyKind::kLruInclusive;
  Scheme scheme = Scheme::kDefault;
  /// Unweighted Step I (ablation); only affects inter-node schemes.
  bool unweighted_step1 = false;
  /// Step I backend (core/layout_solver.hpp); only affects inter-node
  /// schemes. Defaults to the FLO_SOLVER process default (unimodular
  /// unless FLO_SOLVER=constraint). Joins the compile fingerprint and the
  /// engine journal key, so cells never mix backends.
  SolverKind solver = solver_from_env();
  /// Trace generation strategy; streaming and eager produce bit-identical
  /// simulation results (golden-tested), so this is purely a memory knob.
  TraceMode trace = TraceMode::kStreaming;
  /// Simulator core (DESIGN.md §4g). Defaults to the FLO_SIM process
  /// default (clock unless FLO_SIM=event); set explicitly to pin a cell
  /// to one core regardless of the environment.
  storage::SimCoreKind sim_core = storage::sim_core_from_env();
  /// When set, the optimizer compiles against this topology while the
  /// simulation runs on `topology` — the Section 4.3 template-hierarchy
  /// scenario (compile once per template family, run on any member).
  std::optional<storage::TopologyConfig> compile_topology;
};

/// Compile-time product of one experiment cell: the schedule actually used
/// (possibly remapped by the computation-mapping baseline) plus the
/// scheme's per-array layouts. Read-only after construction and therefore
/// shareable across concurrently simulating cells.
struct CompiledExperiment {
  parallel::ParallelSchedule schedule;
  layout::LayoutMap layouts;
  layout::ProgramTransformPlan plan;  ///< empty for non-inter-node schemes
  std::size_t profiler_runs = 0;      ///< extra sims (dimension reindexing)
};

struct ExperimentResult {
  storage::SimulationResult sim;
  layout::ProgramTransformPlan plan;  ///< empty for non-inter-node schemes
  std::size_t profiler_runs = 0;      ///< extra sims (dimension reindexing)
};

/// Runs the compile-time half: parallel schedule plus scheme-specific
/// layouts (for dimension reindexing this includes the profiling sims).
CompiledExperiment compile_experiment(const ir::Program& program,
                                      const ExperimentConfig& config);

/// The transform plan alone: exactly compile_experiment(program,
/// config).plan, with the same checks and exceptions, but the inter-node
/// schemes stop Step II at its census and build no layout, and the other
/// schemes (whose plan is empty) compile nothing. What flo_serve returns.
layout::ProgramTransformPlan compile_plan(const ir::Program& program,
                                          const ExperimentConfig& config);

/// Runs the simulation half against a precompiled cell: trace (streaming
/// or eager), KARMA hints when the policy needs them, simulation.
/// Thread-safe for concurrent calls sharing one `compiled`.
storage::SimulationResult simulate_experiment(
    const ir::Program& program, const CompiledExperiment& compiled,
    const ExperimentConfig& config);

/// Runs one experiment end to end: compile_experiment + simulate_experiment.
ExperimentResult run_experiment(const ir::Program& program,
                                const ExperimentConfig& config);

/// Reads every FLO_* knob the library obeys through its cached reader, in
/// the order FLO_SIM, FLO_EXTENTS, FLO_SOLVER, FLO_QOS, FLO_SCHED,
/// FLO_FAULTS, FLO_METRICS, then calls `more` (a program's own knobs, read
/// through util::read_knob). Every program calls it before any work: on
/// the first malformed knob it prints `<program>: FLO_X: <reason>` to
/// stderr and returns false, and the program exits 2.
bool check_knobs(const char* program, void (*more)() = nullptr);

}  // namespace flo::core

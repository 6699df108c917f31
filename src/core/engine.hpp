// ExperimentEngine — expands an experiment grid into independent cells and
// runs them on a worker pool with deterministic, ordered result collection.
//
// Every paper figure is a grid of (application × scheme × policy ×
// topology/mapping) cells; each cell is an independent deterministic
// simulation, so the engine parallelizes across cells, not inside one.
// Cells that share a compilation — same program, schedule and layout
// scheme, e.g. one scheme measured under three cache policies — compute
// the optimizer/layout half once and share it read-only (the compile
// cache). results[i] always corresponds to jobs[i], whatever the worker
// count: the determinism regression test holds 1-worker and N-worker runs
// to byte-identical SimulationResults.
//
// Fault tolerance: run_guarded() isolates each cell, so one crashing or
// hung cell yields a failed JobResult instead of killing the grid.
// Transient failures (TransientError) are retried a bounded number of
// times; completed cells can be checkpointed to an atomically-written
// journal so an interrupted grid resumes where it left off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compile_cache.hpp"
#include "core/experiment.hpp"

namespace flo::core {

/// One grid cell: a program under one configuration. The program is not
/// owned and must outlive the run.
struct ExperimentJob {
  std::string label;  ///< e.g. "applu/inter-node" (reports, debugging)
  const ir::Program* program = nullptr;
  ExperimentConfig config;
};

/// Failure class the engine treats as retryable (e.g. a resource hiccup
/// rather than a deterministic bug). Anything else fails the cell on the
/// first attempt.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Every field has a default member initializer, so `EngineOptions{4}`
/// names only the leading fields it sets and still compiles clean under
/// -Wextra's -Wmissing-field-initializers.
struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Share compile_experiment results between cells with identical
  /// compile signatures (layouts are immutable after construction, so
  /// sharing is read-only). Disable to force per-cell compilation.
  bool share_compilations = true;
  /// The compile cache to dedup through (core/compile_cache.hpp). Null +
  /// share_compilations makes a private per-run cache (the historical
  /// behaviour); a long-lived caller may pass its own so compilations
  /// dedup across submissions. Keys fingerprint program CONTENT, so
  /// sharing one cache across unrelated grids is safe.
  std::shared_ptr<CompileCache> compile_cache{};
  /// Extra attempts granted to a cell that throws TransientError; other
  /// exceptions (and wall-clock timeouts) fail the cell immediately.
  std::uint32_t max_retries = 0;
  /// Wall-clock budget per attempt, in seconds; 0 = unlimited. When set,
  /// each attempt runs on its own thread; a hung attempt is abandoned
  /// (detached) and the cell reports failure. The abandoned thread keeps
  /// only a copy of the job and the shared compile cache alive — callers
  /// must keep the referenced ir::Program alive for process lifetime
  /// (true of the static workload suites).
  double job_timeout = 0;
  /// Checkpoint journal path; empty = no journal. Completed cells are
  /// streamed to this file (atomic tmp+rename on every update); a rerun
  /// pointed at the same journal skips cells already recorded, restoring
  /// their results bit-exactly. Cell keys fingerprint the program CONTENT
  /// (printed IR) plus the full config, and the file header carries a hash
  /// of the whole grid's key set: a journal from a different grid is
  /// accepted only when it is a pure subset of the current one (a grown
  /// sweep resuming), and otherwise — edited programs, a foreign
  /// experiment, a pre-v2 journal — run_guarded throws std::runtime_error
  /// with a diagnostic naming the file, instead of silently resuming from
  /// stale results. Only the simulation half is journaled: resumed cells
  /// carry an empty transform plan (ExperimentResult::plan), which no grid
  /// consumer inspects.
  std::string journal_path{};
  /// Test hook: when set, replaces the compile+simulate step entirely.
  /// Used by the fault-tolerance tests to inject crashing/hanging cells.
  std::function<ExperimentResult(const ExperimentJob&)> runner{};
};

/// Outcome of one guarded cell. Exactly one of these holds per job, in
/// job order, whatever the worker count.
struct JobResult {
  ExperimentResult result;  ///< valid iff !failed
  bool failed = false;
  bool from_journal = false;  ///< restored from the checkpoint journal
  std::uint32_t attempts = 0;  ///< attempts actually executed (0 if resumed)
  std::string reason;          ///< human-readable failure description
  /// The original exception when the attempt threw (null for timeouts);
  /// lets strict callers rethrow with the concrete type preserved.
  std::exception_ptr error;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions options = {});

  /// Runs all jobs and returns results in job order. Throws the first
  /// (lowest job index) captured exception after all workers finish.
  std::vector<ExperimentResult> run(const std::vector<ExperimentJob>& jobs);

  /// Fault-isolated variant: never throws for per-cell failures. Every
  /// cell yields a JobResult; crashed/hung cells report failed=true with
  /// a reason while the rest of the grid completes normally.
  std::vector<JobResult> run_guarded(const std::vector<ExperimentJob>& jobs);

  /// Worker threads the engine will actually use.
  std::size_t workers() const { return workers_; }

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
  std::size_t workers_;
};

/// Cartesian grid helper: expands app × topology × mapping × policy ×
/// scheme (in that nesting order, apps outermost) into a deterministic job
/// list. Axes left empty use the corresponding field of `base`.
struct ExperimentGrid {
  /// (label, program) pairs; programs must outlive the expanded jobs.
  std::vector<std::pair<std::string, const ir::Program*>> apps;
  std::vector<Scheme> schemes;
  std::vector<storage::PolicyKind> policies;
  std::vector<parallel::MappingKind> mappings;
  std::vector<storage::TopologyConfig> topologies;
  ExperimentConfig base;

  std::vector<ExperimentJob> expand() const;
};

}  // namespace flo::core

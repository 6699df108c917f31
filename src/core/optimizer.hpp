// FileLayoutOptimizer — the public entry point of the library.
//
// Mirrors Fig. 4 of the paper: input is a parallelized program plus a
// description of the storage-cache topology; output is an optimized file
// layout per disk-resident array (canonical row-major where no
// partitioning exists) and the transform plan describing the updated index
// functions. Everything happens at compile time; there are no runtime
// layout changes.
#pragma once

#include "core/layout_solver.hpp"
#include "ir/program.hpp"
#include "layout/file_layout.hpp"
#include "layout/internode.hpp"
#include "layout/transform_plan.hpp"
#include "parallel/schedule.hpp"
#include "storage/topology.hpp"

namespace flo::core {

struct OptimizerOptions {
  layout::LayerMask mask = layout::LayerMask::kBoth;  ///< Fig. 7(f) sweeps
  layout::PartitioningOptions partitioning;           ///< Eq. 5 ablation
  /// Step I backend (core/layout_solver.hpp); defaults to FLO_SOLVER.
  SolverKind solver = solver_from_env();
};

struct OptimizationResult {
  layout::LayoutMap layouts;           ///< one per array (never null)
  layout::ProgramTransformPlan plan;   ///< per-array compile-time report
};

class FileLayoutOptimizer {
 public:
  explicit FileLayoutOptimizer(storage::StorageTopology topology);

  /// Determines a file layout for each array of `program` under `schedule`.
  OptimizationResult optimize(const ir::Program& program,
                              const parallel::ParallelSchedule& schedule,
                              const OptimizerOptions& options = {}) const;

  /// The transform plan alone: byte for byte optimize().plan, from Step I
  /// and Step II's census, without building any layout.
  layout::ProgramTransformPlan plan(const ir::Program& program,
                                    const parallel::ParallelSchedule& schedule,
                                    const OptimizerOptions& options = {}) const;

  const storage::StorageTopology& topology() const { return topology_; }

 private:
  /// Step I, the profitability and conflict gates and Step II for every
  /// array. With `layouts` non-null each array's layout is built into it;
  /// otherwise Step II stops at the census.
  layout::ProgramTransformPlan compile(const ir::Program& program,
                                       const parallel::ParallelSchedule& schedule,
                                       const OptimizerOptions& options,
                                       layout::LayoutMap* layouts) const;

  storage::StorageTopology topology_;
};

}  // namespace flo::core

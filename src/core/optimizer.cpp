#include "core/optimizer.hpp"

#include <optional>

#include "layout/canonical.hpp"
#include "obs/span.hpp"

namespace flo::core {

FileLayoutOptimizer::FileLayoutOptimizer(storage::StorageTopology topology)
    : topology_(std::move(topology)) {}

OptimizationResult FileLayoutOptimizer::optimize(
    const ir::Program& program, const parallel::ParallelSchedule& schedule,
    const OptimizerOptions& options) const {
  OptimizationResult result;
  result.plan = compile(program, schedule, options, &result.layouts);
  return result;
}

layout::ProgramTransformPlan FileLayoutOptimizer::plan(
    const ir::Program& program, const parallel::ParallelSchedule& schedule,
    const OptimizerOptions& options) const {
  return compile(program, schedule, options, nullptr);
}

layout::ProgramTransformPlan FileLayoutOptimizer::compile(
    const ir::Program& program, const parallel::ParallelSchedule& schedule,
    const OptimizerOptions& options, layout::LayoutMap* layouts) const {
  const obs::ScopedSpan span("compile.optimize", "compile",
                             obs::enabled()
                                 ? obs::SpanArgs{{"program", program.name()}}
                                 : obs::SpanArgs{});
  layout::ProgramTransformPlan result;
  result.program_name = program.name();
  if (layouts != nullptr) layouts->reserve(program.arrays().size());

  for (ir::ArrayId a = 0; a < program.arrays().size(); ++a) {
    layout::ArrayTransformPlan plan;
    plan.array_name = program.array(a).name();
    {
      // Step I behind the LayoutSolver seam: the Eq. 3-5 unimodular greedy
      // by default, or the constraint-network backend via options.solver.
      const obs::ScopedSpan step1("compile.step1", "compile");
      plan.partitioning = solver_for(options.solver)
                              .solve(program, a, schedule,
                                     options.partitioning);
    }

    // Profitability test: an array within a small multiple of one I/O
    // cache is already served at the top of the hierarchy under any layout
    // — the paper's group-1 observation ("very good cache hit rates; no
    // scope for additional improvement"). Restructuring such arrays can
    // only add sparsity; the 2x margin keeps the decision stable across
    // the Fig. 7(c) capacity sweep.
    const bool too_small_to_matter =
        static_cast<std::uint64_t>(program.array(a).byte_size()) <=
        2 * topology_.config().io_cache_bytes;

    // Conflict test: when the chosen hyperplane satisfies well under the
    // majority of the (weighted) references, the unsatisfied ones keep
    // sweeping the relaid file scatteredly and the transformation cannot
    // pay for itself — the paper's twer case ("overly-conflicting requests
    // ... prevent the compiler from choosing a good file layout"). Keep
    // the canonical layout there.
    const bool too_conflicted =
        plan.partitioning.partitioned &&
        5 * plan.partitioning.satisfied_weight <
            3 * plan.partitioning.total_weight;

    layout::FileLayoutPtr chosen;
    const auto record = [&plan](const layout::ChunkPattern& pattern) {
      plan.optimized = true;
      plan.pattern_elements = pattern.pattern_elements();
      plan.chunk_elements = pattern.chunk_elements();
    };
    if (!too_small_to_matter && !too_conflicted) {
      // Step II: hierarchy-aware chunk-pattern construction (Algorithm 1),
      // consuming the Step I result the solver already produced. The plan
      // reads only the pattern, which the census alone determines.
      const obs::ScopedSpan step2("compile.step2", "compile");
      if (layouts != nullptr) {
        chosen = layout::build_internode_layout(
            program, a, plan.partitioning, schedule, topology_, options.mask);
        if (chosen) {
          record(static_cast<const layout::InterNodeLayout&>(*chosen)
                     .pattern());
        }
      } else if (const std::optional<layout::InterNodeCensus> census =
                     layout::internode_census(program, a, plan.partitioning,
                                              schedule, topology_,
                                              options.mask)) {
        record(census->pattern);
      }
    }
    if (!chosen && layouts != nullptr) {
      chosen = std::make_unique<layout::RowMajorLayout>(
          program.array(a).space());
    }
    if (obs::enabled()) {
      auto& reg = obs::registry();
      reg.counter("compile.arrays_total").add(1);
      if (plan.partitioning.partitioned) {
        reg.counter("compile.arrays_partitioned").add(1);
      }
      if (plan.optimized) reg.counter("compile.arrays_materialized").add(1);
      if (too_small_to_matter && plan.partitioning.partitioned) {
        reg.counter("compile.arrays_skipped_small").add(1);
      }
      if (too_conflicted) {
        reg.counter("compile.arrays_skipped_conflicted").add(1);
      }
    }
    if (layouts != nullptr) layouts->push_back(std::move(chosen));
    result.arrays.push_back(std::move(plan));
  }
  if (obs::enabled()) {
    obs::registry()
        .histogram("compile.optimize_seconds")
        .observe(span.elapsed_seconds());
  }
  return result;
}

}  // namespace flo::core

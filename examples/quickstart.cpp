// Quickstart: optimize the file layout of an out-of-core matrix transpose
// (B[j,i] = A[i,j]) for a 3-tier storage hierarchy, and measure the effect.
//
//   $ ./build/examples/quickstart
//
// Walks through the whole public API: build a program, parallelize it,
// run the optimizer, inspect the transform plan, and compare simulated
// executions under the default and optimized layouts. The B side is the
// Fig. 2(a) pattern: each thread writes a column slab that is scattered
// all over a row-major file — exactly what the inter-node layout repairs.
#include <iostream>

#include "core/engine.hpp"
#include "core/report.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "util/format.hpp"

int main() {
  using namespace flo;
  if (!core::check_knobs("quickstart")) return 2;

  // 1. Express the application: disk-resident transpose, repeated over a
  //    few time steps, parallelized on the i loop.
  constexpr std::int64_t kN = 512;
  ir::Program program =
      ir::ProgramBuilder("transpose")
          .array("A", {kN, kN})
          .array("B", {kN, kN})
          .nest("tr", {{0, kN - 1}, {0, kN - 1}}, /*parallel=*/0,
                /*repeat=*/2)
          .read("A", {{1, 0}, {0, 1}})   // A[i, j]: streams nicely
          .write("B", {{0, 1}, {1, 0}})  // B[j, i]: scattered (Fig. 2(a))
          .done()
          .build();
  std::cout << ir::to_pseudocode(program) << '\n';

  // 2. Describe the target architecture (Table 1, scaled for simulation).
  core::ExperimentConfig config;
  std::cout << core::describe_config(config) << "\n\n";

  // 3. Run the compile-time optimizer and inspect what it decided.
  const storage::StorageTopology topology(config.topology);
  const parallel::ParallelSchedule schedule(program, config.threads);
  const core::FileLayoutOptimizer optimizer(topology);
  const core::OptimizationResult opt = optimizer.optimize(program, schedule);
  std::cout << opt.plan.to_string() << '\n';

  // 4. Simulate both executions and compare. The engine runs independent
  //    cells on a worker pool; results come back in job order.
  core::ExperimentConfig inter = config;
  inter.scheme = core::Scheme::kInterNode;
  core::ExperimentEngine engine;
  const auto results = engine.run({{"default", &program, config},
                                   {"inter-node", &program, inter}});
  const auto& baseline = results[0];
  const auto& optimized = results[1];

  std::cout << "default layout:    " << baseline.sim.summary() << '\n';
  std::cout << "inter-node layout: " << optimized.sim.summary() << '\n';
  std::cout << "speedup: "
            << util::format_fixed(
                   baseline.sim.exec_time / optimized.sim.exec_time, 2)
            << "x  (normalized exec "
            << util::format_fixed(
                   optimized.sim.exec_time / baseline.sim.exec_time, 2)
            << ")\n";
  return 0;
}

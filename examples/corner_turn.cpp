// Domain example: a SAR-style corner turn (row-phase then column-phase
// over one disk-resident image) — the classic two-phase conflict where
// Step I's reference weighting (Eq. 5) decides which phase wins the
// layout, and Step II's hierarchy-aware chunking keeps the threads out of
// each other's caches.
//
//   $ ./build/examples/corner_turn [azimuth_repeats]
//
// Try azimuth_repeats = 1 (balanced conflict: the optimizer is gated off)
// versus 4 (azimuth-dominated: the file is laid out by columns).
#include <cstdlib>
#include <iostream>

#include "core/engine.hpp"
#include "ir/builder.hpp"
#include "layout/partitioning.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace flo;
  if (!core::check_knobs("corner_turn")) return 2;
  const std::int64_t azimuth_repeats =
      argc > 1 ? std::atoll(argv[1]) : 4;
  if (azimuth_repeats < 1) {
    std::cerr << "azimuth_repeats must be >= 1\n";
    return 1;
  }

  constexpr std::int64_t kN = 512;
  ir::Program program =
      ir::ProgramBuilder("corner_turn")
          .array("img", {kN, kN})
          // Range compression: one sequential pass over the rows.
          .nest("range", {{0, kN - 1}, {0, kN - 1}}, 0, /*repeat=*/1)
          .read("img", {{1, 0}, {0, 1}})
          .done()
          // Azimuth compression: repeated column sweeps.
          .nest("azimuth", {{0, kN - 1}, {0, kN - 1}}, 0, azimuth_repeats)
          .read("img", {{0, 1}, {1, 0}})
          .done()
          .build();

  core::ExperimentConfig config;
  const storage::StorageTopology topology(config.topology);
  const parallel::ParallelSchedule schedule(program, config.threads);

  // Show what Step I decides about the conflicting references.
  const auto part = layout::partition_array(program, 0, schedule);
  std::cout << "azimuth repeats: " << azimuth_repeats << '\n';
  std::cout << "Step I satisfied " << part.satisfied_groups << "/"
            << part.total_groups << " access-matrix groups ("
            << part.satisfied_weight << "/" << part.total_weight
            << " weighted references); hyperplane d = (";
  for (std::size_t k = 0; k < part.hyperplane.size(); ++k) {
    if (k) std::cout << ", ";
    std::cout << part.hyperplane[k];
  }
  std::cout << ")\n";

  core::ExperimentConfig inter = config;
  inter.scheme = core::Scheme::kInterNode;
  core::ExperimentEngine engine;
  const auto results = engine.run({{"default", &program, config},
                                   {"inter-node", &program, inter}});
  const auto& baseline = results[0];
  const auto& optimized = results[1];
  std::cout << "default:    " << baseline.sim.summary() << '\n';
  std::cout << "inter-node: " << optimized.sim.summary() << '\n';
  std::cout << "normalized exec: "
            << util::format_fixed(
                   optimized.sim.exec_time / baseline.sim.exec_time, 2)
            << '\n';
  return 0;
}

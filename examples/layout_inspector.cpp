// Domain example: inspect what the optimizer actually does to a file — the
// per-array transform plans for any suite application, plus a visual dump
// of one array's element -> file-slot mapping under default and optimized
// layouts (a textual rendering of the paper's Fig. 2).
//
//   $ ./build/examples/layout_inspector [app]
#include <algorithm>
#include <iostream>

#include "core/experiment.hpp"
#include "core/optimizer.hpp"
#include "layout/canonical.hpp"
#include "layout/internode.hpp"
#include "util/format.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace flo;

/// Renders which thread owns each region of a 2-D array under a layout by
/// sampling a 16x16 grid of elements and printing the owner of each.
void render_ownership(const layout::InterNodeLayout& layout,
                      const poly::DataSpace& space) {
  std::cout << "ownership map (16x16 sample; one hex digit = owning thread "
               "mod 16):\n";
  for (int r = 0; r < 16; ++r) {
    std::cout << "  ";
    for (int c = 0; c < 16; ++c) {
      const std::vector<std::int64_t> point{
          r * space.extent(0) / 16, c * space.extent(1) / 16};
      std::cout << "0123456789abcdef"[layout.owner(point) % 16];
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!flo::core::check_knobs("layout_inspector")) return 2;
  const std::string name = argc > 1 ? argv[1] : "qio";
  const auto& names = workloads::workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::cerr << "unknown application '" << name << "', known:";
    for (const auto& known : names) std::cerr << ' ' << known;
    std::cerr << '\n';
    return 2;
  }
  const auto app = workloads::workload_by_name(name);
  const storage::StorageTopology topology(
      storage::TopologyConfig::paper_default());
  const parallel::ParallelSchedule schedule(app.program, 64);
  const core::FileLayoutOptimizer optimizer(topology);
  const auto result = optimizer.optimize(app.program, schedule);

  std::cout << result.plan.to_string() << '\n';

  for (std::size_t a = 0; a < result.layouts.size(); ++a) {
    const auto* internode =
        dynamic_cast<const layout::InterNodeLayout*>(result.layouts[a].get());
    if (!internode) continue;
    const auto& decl = app.program.array(static_cast<ir::ArrayId>(a));
    if (decl.dims() != 2) continue;
    std::cout << "array " << decl.name() << ": " << internode->describe()
              << "\n  touched elements: " << internode->touched_count()
              << " of " << decl.space().element_count() << '\n';
    render_ownership(*internode, decl.space());
    break;  // one visual is enough
  }
  return 0;
}

// Domain example: explore how the benefit of the inter-node layout depends
// on the storage hierarchy — sweep cache capacity, sharing degree and
// cache-management policy for one application, entirely through the public
// API. (A miniature of the paper's Section 5.3 sensitivity study.)
//
//   $ ./build/examples/hierarchy_explorer [app]
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/engine.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace flo;
  if (!core::check_knobs("hierarchy_explorer")) return 2;
  const std::string name = argc > 1 ? argv[1] : "applu";
  const auto& names = workloads::workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::cerr << "unknown application '" << name << "', known:";
    for (const auto& known : names) std::cerr << ' ' << known;
    std::cerr << '\n';
    return 2;
  }
  const auto app = workloads::workload_by_name(name);
  std::cout << "application: " << app.name << " — " << app.description
            << "\n\n";

  // Collect every (baseline, inter-node) pair as one engine submission:
  // the experiments are independent cells, and the sweeps that only touch
  // the topology reuse the default baseline compilation.
  std::vector<std::string> labels;
  std::vector<core::ExperimentJob> jobs;
  auto add = [&](const std::string& label, core::ExperimentConfig base) {
    auto opt = base;
    opt.scheme = core::Scheme::kInterNode;
    labels.push_back(label);
    jobs.push_back({label + "/base", &app.program, base});
    jobs.push_back({label + "/opt", &app.program, opt});
  };

  {
    core::ExperimentConfig c;
    add("default topology (Table 1)", c);
  }
  {
    core::ExperimentConfig c;
    c.topology.io_cache_bytes /= 2;
    c.topology.storage_cache_bytes /= 2;
    add("0.5x cache capacities", c);
  }
  {
    core::ExperimentConfig c;
    c.topology.io_nodes = 8;
    c.topology.storage_nodes = 2;
    add("more sharing: (64, 8, 2) nodes", c);
  }
  {
    core::ExperimentConfig c;
    c.topology.block_size /= 2;
    add("0.5x block size", c);
  }
  {
    core::ExperimentConfig c;
    c.policy = storage::PolicyKind::kKarma;
    add("KARMA exclusive caching", c);
  }
  {
    core::ExperimentConfig c;
    c.policy = storage::PolicyKind::kDemoteLru;
    add("DEMOTE-LRU exclusive caching", c);
  }

  const auto results = core::ExperimentEngine().run(jobs);
  util::Table table({"experiment", "normalized exec", "improvement"});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const double b = results[2 * i].sim.exec_time;
    const double o = results[2 * i + 1].sim.exec_time;
    const double norm = o / b;
    table.add_row({labels[i], util::format_fixed(norm, 2),
                   util::format_percent(1.0 - norm)});
  }
  std::cout << table;
  return 0;
}

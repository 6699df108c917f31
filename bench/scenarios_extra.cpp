// Extra scenarios: compile-time statistics, the DESIGN.md ablations, the
// fault sweep, the calibration table, and the fast "smoke" scenario CI
// runs.
#include <algorithm>
#include <chrono>

#include "bench/bench_common.hpp"
#include "bench/scenario.hpp"
#include "layout/template_hierarchy.hpp"
#include "storage/fault_model.hpp"

namespace flo::bench {

namespace {

// Section 5.1 compile-time statistics: fraction of disk-resident arrays the
// compiler determines a layout for ("about 72% of these arrays on
// average ... all arrays in benchmark s3asim"). The paper also reports
// ~36% compile-time overhead (<= 50 s worst case on SUIF); ours runs in
// milliseconds in-process, and the optimizer records every call in the
// compile.optimize_seconds histogram rather than on stdout, which stays a
// pure function of the code.
int run_compile_stats(ScenarioContext& ctx) {
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  const core::FileLayoutOptimizer optimizer(topo);

  util::Table table({"Application", "arrays", "Step I partitionable",
                     "materialized"});
  std::size_t total = 0, partitionable = 0, materialized = 0;
  for (const auto& app : workloads::workload_suite()) {
    const parallel::ParallelSchedule schedule(app.program, 64);
    // The statistics read only the plan: Step II stops at its census.
    const layout::ProgramTransformPlan result =
        optimizer.plan(app.program, schedule);
    std::size_t app_part = 0;
    for (const auto& plan : result.arrays) {
      if (plan.partitioning.partitioned) ++app_part;
    }
    total += result.arrays.size();
    partitionable += app_part;
    materialized += result.optimized_count();
    table.add_row({app.name, std::to_string(result.arrays.size()),
                   std::to_string(app_part) + "/" +
                       std::to_string(result.arrays.size()),
                   std::to_string(result.optimized_count())});
  }
  const double part_fraction =
      core::safe_average(static_cast<double>(partitionable), total);
  const double mat_fraction =
      core::safe_average(static_cast<double>(materialized), total);
  ctx.out() << "Section 5.1 — compile-time layout statistics\n\n";
  ctx.out() << table << '\n';
  ctx.out() << "suite-wide Step I partitionable fraction: "
            << util::format_percent(part_fraction)
            << " (paper: ~72% of arrays optimized on average)\n";
  ctx.out() << "suite-wide materialized inter-node layouts: "
            << util::format_percent(mat_fraction)
            << " (after profitability/conflict gating)\n";
  ctx.emit("partitionable_fraction", part_fraction);
  ctx.emit("materialized_fraction", mat_fraction);
  return 0;
}

// Ablation (DESIGN.md §5.1): the Eq. 5 weighted-greedy reference selection
// in Step I versus an unweighted program-order greedy. Weighting should
// matter exactly for the applications whose references conflict with
// asymmetric weights (e.g. sar's corner turn).
int run_ablation_step1(ScenarioContext& ctx) {
  const auto suite = workloads::workload_suite();

  core::ExperimentConfig base;
  core::ExperimentConfig weighted = base;
  weighted.scheme = core::Scheme::kInterNode;
  core::ExperimentConfig unweighted = weighted;
  unweighted.unweighted_step1 = true;
  const auto grid = run_variant_grid(
      {{"weighted", base, weighted}, {"unweighted", base, unweighted}},
      suite);

  util::Table table({"Application", "weighted (Eq. 5)", "unweighted",
                     "delta"});
  double weighted_avg = 0, unweighted_avg = 0;
  for (std::size_t a = 0; a < suite.size(); ++a) {
    const double w = grid[0][a].normalized_exec();
    const double u = grid[1][a].normalized_exec();
    weighted_avg += 1.0 - w;
    unweighted_avg += 1.0 - u;
    table.add_row({suite[a].name, util::format_fixed(w, 2),
                   util::format_fixed(u, 2),
                   util::format_fixed(u - w, 2)});
  }
  weighted_avg = core::safe_average(weighted_avg, suite.size());
  unweighted_avg = core::safe_average(unweighted_avg, suite.size());
  ctx.out() << "Ablation — Step I reference weighting (normalized exec)\n\n";
  ctx.out() << table << '\n';
  ctx.out() << "average improvement, weighted:   "
            << util::format_percent(weighted_avg) << '\n';
  ctx.out() << "average improvement, unweighted: "
            << util::format_percent(unweighted_avg) << '\n';
  ctx.emit("avg_improvement.weighted", weighted_avg);
  ctx.emit("avg_improvement.unweighted", unweighted_avg);
  return 0;
}

// Ablation (DESIGN.md §5.4): stability of the normalized results across the
// simulation scale factor. The workloads are calibrated at the default
// capacity scale; this bench verifies the qualitative conclusions (group
// ordering, sign of the improvement) survive halving/doubling the
// capacity scale, i.e. that ratios rather than absolute bytes drive the
// reproduction.
int run_ablation_scale(ScenarioContext& ctx) {
  const auto suite = workloads::workload_suite();

  struct Point {
    const char* label;
    std::uint64_t capacity_scale;
  };
  // Default is 8192; smaller scale = larger caches.
  const Point points[] = {{"capacity_scale 16384 (0.5x caches)", 16384},
                          {"capacity_scale 8192 (default)", 8192},
                          {"capacity_scale 4096 (2x caches)", 4096}};

  std::vector<VariantSpec> variants;
  for (const auto& point : points) {
    core::ExperimentConfig base;
    base.topology = storage::TopologyConfig::paper_default(
        point.capacity_scale, 64);
    core::ExperimentConfig opt = base;
    opt.scheme = core::Scheme::kInterNode;
    variants.push_back({point.label, base, opt});
  }
  const auto grid = run_variant_grid(variants, suite);

  for (std::size_t pi = 0; pi < variants.size(); ++pi) {
    const auto& point = points[pi];
    const auto& rows = grid[pi];
    double group_sum[4] = {0, 0, 0, 0};
    std::size_t group_count[4] = {0, 0, 0, 0};
    for (std::size_t a = 0; a < rows.size(); ++a) {
      group_sum[suite[a].group] += rows[a].improvement();
      ++group_count[suite[a].group];
    }
    const double avg = core::average_improvement(rows);
    ctx.out() << point.label << ": average " << util::format_percent(avg)
              << " | groups "
              << util::format_percent(
                     core::safe_average(group_sum[1], group_count[1]))
              << " / "
              << util::format_percent(
                     core::safe_average(group_sum[2], group_count[2]))
              << " / "
              << util::format_percent(
                     core::safe_average(group_sum[3], group_count[3]))
              << '\n';
    ctx.emit("avg_improvement." + std::to_string(point.capacity_scale), avg);
  }
  ctx.out() << "expected: group 3 > group 2 > group 1 at every scale\n";
  return 0;
}

// Ablation — hardware I/O prefetching (Section 4.2: "The created (linear)
// file layout can also help improve the effectiveness of hardware I/O
// prefetching if supported by the underlying system").
//
// We enable storage-node readahead and measure the default and inter-node
// executions with and without it. The claim to verify: prefetching helps
// the optimized layouts more (their per-thread streams are sequential on
// disk), i.e. the improvement of inter-node over default *grows* when
// readahead is available.
int run_ablation_prefetch(ScenarioContext& ctx) {
  const auto suite = workloads::workload_suite();

  std::vector<VariantSpec> variants;
  for (int pf = 0; pf < 2; ++pf) {
    core::ExperimentConfig base;
    base.topology.prefetch_depth = pf == 0 ? 0 : 4;
    core::ExperimentConfig opt = base;
    opt.scheme = core::Scheme::kInterNode;
    variants.push_back({pf == 0 ? "no prefetch" : "prefetch", base, opt});
  }
  const auto grid = run_variant_grid(variants, suite);

  double averages[2] = {0, 0};
  util::Table table({"Application", "no prefetch", "prefetch depth 4"});
  std::vector<std::vector<std::string>> cells(suite.size());
  for (int pf = 0; pf < 2; ++pf) {
    const auto& rows = grid[pf];
    for (std::size_t a = 0; a < rows.size(); ++a) {
      cells[a].push_back(util::format_fixed(rows[a].normalized_exec(), 2));
    }
    averages[pf] = core::average_improvement(rows);
  }
  for (std::size_t a = 0; a < suite.size(); ++a) {
    table.add_row({suite[a].name, cells[a][0], cells[a][1]});
  }
  ctx.out() << "Ablation — inter-node improvement with storage readahead\n"
               "(normalized exec; each column vs the default execution "
               "under the same prefetch setting)\n\n";
  ctx.out() << table << '\n';
  ctx.out() << "average improvement without prefetch: "
            << util::format_percent(averages[0]) << '\n';
  ctx.out() << "average improvement with prefetch:    "
            << util::format_percent(averages[1]) << '\n';
  ctx.out() << "paper claim: the linear layouts improve prefetch "
               "effectiveness\n";
  ctx.emit("avg_improvement.no_prefetch", averages[0]);
  ctx.emit("avg_improvement.prefetch", averages[1]);
  return 0;
}

// Ablation — "template hierarchy" compilation (Section 4.3): compile the
// layouts once against the template's reference capacities and run on
// topologies from the same family at different absolute capacities. The
// paper predicts a single compilation per template suffices "with some
// performance loss, of course" — this bench quantifies that loss against
// exact per-topology compilation.
//
// The template scenario is expressed through ExperimentConfig's
// compile_topology field: the optimizer sees the family's reference
// capacities while the simulation runs on the actual member.
int run_ablation_template(ScenarioContext& ctx) {
  const auto suite = workloads::workload_suite();
  // Run topology: same template family as the default, 1.5x capacities.
  core::ExperimentConfig run;
  run.topology.io_cache_bytes = run.topology.io_cache_bytes * 3 / 2;
  run.topology.storage_cache_bytes = run.topology.storage_cache_bytes * 3 / 2;
  const storage::StorageTopology run_topo(run.topology);

  // Template compiled at the family's reference capacities (the default).
  const storage::TopologyConfig reference =
      storage::TopologyConfig::paper_default();
  const auto tmpl =
      layout::HierarchyTemplate::from(storage::StorageTopology(reference));
  ctx.out() << "compiling against " << tmpl.describe() << '\n';
  ctx.out() << "running on        " << run_topo.describe() << '\n';
  ctx.out() << "family member:    " << (tmpl.matches(run_topo) ? "yes" : "no")
            << "\n\n";

  core::ExperimentConfig with_template = run;
  with_template.scheme = core::Scheme::kInterNode;
  with_template.compile_topology = reference;
  core::ExperimentConfig with_exact = run;
  with_exact.scheme = core::Scheme::kInterNode;
  const auto grid = run_variant_grid(
      {{"template", run, with_template}, {"exact", run, with_exact}}, suite);

  util::Table table({"Application", "default", "template-compiled",
                     "exact-compiled"});
  double tmpl_sum = 0, exact_sum = 0;
  for (std::size_t a = 0; a < suite.size(); ++a) {
    const double norm_template = grid[0][a].normalized_exec();
    const double norm_exact = grid[1][a].normalized_exec();
    tmpl_sum += 1.0 - norm_template;
    exact_sum += 1.0 - norm_exact;
    table.add_row({suite[a].name, "1.00",
                   util::format_fixed(norm_template, 2),
                   util::format_fixed(norm_exact, 2)});
  }
  const double tmpl_avg = core::safe_average(tmpl_sum, suite.size());
  const double exact_avg = core::safe_average(exact_sum, suite.size());
  ctx.out() << table << '\n';
  ctx.out() << "average improvement, template compilation: "
            << util::format_percent(tmpl_avg) << '\n';
  ctx.out() << "average improvement, exact compilation:    "
            << util::format_percent(exact_avg) << '\n';
  ctx.out() << "paper: one compilation per template family suffices with "
               "some loss\n";
  ctx.emit("avg_improvement.template", tmpl_avg);
  ctx.emit("avg_improvement.exact", exact_avg);
  return 0;
}

// Fault sweep: how gracefully does the optimized layout degrade as the
// storage hierarchy misbehaves? Sweeps the transient-failure / slow-disk
// rate and reports, per rate, the suite-average execution time of the
// row-major baseline and the inter-node-optimized layout (each normalized
// to its own fault-free run), the layout improvement retained, and the
// injected-fault counters. Faults are seeded, so the table is
// deterministic for any FLO_WORKERS.
//
// FLO_FAULTS overrides the per-rate FaultConfig this bench constructs
// (every cell then runs under the same spec), which collapses the sweep —
// leave it unset. FLO_JOURNAL / FLO_JOB_* apply as for every bench.
int run_fault_sweep(ScenarioContext& ctx) {
  const double rates[] = {0.0, 0.01, 0.05, 0.1};
  const auto suite = workloads::workload_suite();

  std::vector<VariantSpec> variants;
  for (const double rate : rates) {
    core::ExperimentConfig base;
    base.topology.fault.enabled = rate > 0;
    base.topology.fault.seed = 2012;
    base.topology.fault.storage_transient_rate = rate;
    base.topology.fault.disk_transient_rate = rate;
    base.topology.fault.slow_disk_rate = rate;
    core::ExperimentConfig opt = base;
    opt.scheme = core::Scheme::kInterNode;
    variants.push_back(
        {"rate=" + util::format_fixed(rate, 2), base, opt});
  }
  const auto rows = run_variant_grid(variants, suite);

  // Suite-average exec time per (rate, scheme), plus summed fault counters.
  std::vector<double> base_exec(variants.size(), 0);
  std::vector<double> opt_exec(variants.size(), 0);
  std::vector<double> improvement(variants.size(), 0);
  std::vector<storage::FaultStats> fault_sums(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (const auto& m : rows[v]) {
      base_exec[v] += m.baseline.exec_time;
      opt_exec[v] += m.optimized.exec_time;
      for (const auto* f : {&m.baseline.faults, &m.optimized.faults}) {
        fault_sums[v].storage.transient_failures += f->storage.transient_failures;
        fault_sums[v].disk.transient_failures += f->disk.transient_failures;
        fault_sums[v].disk.slow_services += f->disk.slow_services;
        fault_sums[v].exhausted_retries += f->exhausted_retries;
        fault_sums[v].disk.degraded_time += f->io.degraded_time +
                                            f->storage.degraded_time +
                                            f->disk.degraded_time;
      }
    }
    improvement[v] = core::average_improvement(rows[v]);
  }

  util::Table table({"fault rate", "row-major slowdown", "optimized slowdown",
                     "improvement", "retries", "slow reads", "degraded"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const double base_slow = core::normalized_ratio(base_exec[v], base_exec[0]);
    const double opt_slow = core::normalized_ratio(opt_exec[v], opt_exec[0]);
    table.add_row(
        {util::format_fixed(rates[v], 2), util::format_fixed(base_slow, 3),
         util::format_fixed(opt_slow, 3),
         util::format_percent(improvement[v]),
         std::to_string(fault_sums[v].storage.transient_failures +
                        fault_sums[v].disk.transient_failures),
         std::to_string(fault_sums[v].disk.slow_services),
         util::format_duration(fault_sums[v].disk.degraded_time)});
    ctx.emit("improvement." + util::format_fixed(rates[v], 2),
             improvement[v]);
  }
  ctx.out() << "Fault sweep — degradation vs injected fault rate "
               "(row-major vs inter-node layout)\n";
  ctx.out() << "slowdowns normalized to each scheme's fault-free run; "
               "seed 2012\n\n";
  ctx.out() << table << '\n';
  return 0;
}

// Internal calibration tool (not a paper table): prints simulated default
// miss rates / execution times and inter-node improvements next to the
// paper's Table 2 / Table 3 / Fig. 7(a) targets, so workload parameters can
// be tuned. Kept in-tree because it doubles as a coarse regression check.
int run_calibrate(ScenarioContext& ctx) {
  core::ExperimentConfig base;
  core::ExperimentConfig opt = base;
  opt.scheme = core::Scheme::kInterNode;

  const auto suite = workloads::workload_suite();
  const auto rows = run_suite_pair(base, opt, suite);
  util::Table table({"app", "io%", "io(paper)", "st%", "st(paper)", "exec",
                     "norm", "target", "nIO", "nIO(p)", "nST", "nST(p)",
                     "events"});
  double sum_impr = 0;
  for (std::size_t a = 0; a < suite.size(); ++a) {
    const auto& app = suite[a];
    const auto& m = rows[a];
    const auto& b = m.baseline;
    sum_impr += m.improvement();
    const char* target = app.group == 1   ? "~1.00"
                         : app.group == 2 ? "0.87-0.92"
                                          : "0.74-0.79";
    table.add_row({app.name, util::format_fixed(b.io.miss_rate() * 100, 1),
                   util::format_fixed(app.paper.io_miss, 1),
                   util::format_fixed(b.storage.miss_rate() * 100, 1),
                   util::format_fixed(app.paper.storage_miss, 1),
                   util::format_duration(b.exec_time),
                   util::format_fixed(m.normalized_exec(), 2), target,
                   util::format_fixed(m.normalized_io_miss(), 2),
                   util::format_fixed(app.paper.norm_io_miss, 2),
                   util::format_fixed(m.normalized_storage_miss(), 2),
                   util::format_fixed(app.paper.norm_storage_miss, 2),
                   std::to_string(b.accesses)});
    // Optimality accounting: how close the optimized run lands to its
    // per-layer I/O lower bound (never printed — emit() only, so stdout
    // stays byte-identical to the pre-bound calibrate table).
    ctx.emit(app.name + ".bound_bytes",
             static_cast<double>(m.optimized.bound_bytes()));
    ctx.emit(app.name + ".achieved_ratio", m.optimized.achieved_ratio());
  }
  const double avg = core::safe_average(sum_impr, suite.size());
  ctx.out() << table;
  ctx.out() << "average improvement: " << util::format_percent(avg)
            << " (paper: 23.7%)\n";
  ctx.emit("avg_improvement", avg);
  return 0;
}

// BM_SolverAblation — the two Step I backends (core/layout_solver.hpp)
// head to head: the layout improvement each backend's plans deliver and
// how close each run lands to its I/O lower bound
// (core/io_lower_bound.hpp). The achieved/bound ratio is the scenario's
// headline: 1.00 would mean every byte filled into a cache layer was
// compulsory. Optimizer wall time per backend goes to the
// compile_seconds.<backend> rows (--out), never stdout.
int run_solver_ablation(ScenarioContext& ctx) {
  const auto suite = workloads::workload_suite();

  struct Backend {
    const char* label;
    core::SolverKind kind;
  };
  const Backend backends[] = {
      {"unimodular", core::SolverKind::kUnimodular},
      {"constraint", core::SolverKind::kConstraintNetwork}};

  // Compile-time comparison: direct optimize() wall time per backend over
  // the whole suite (outside the engine, so nothing is cached away).
  double compile_seconds[2] = {0, 0};
  const storage::StorageTopology topo(
      storage::TopologyConfig::paper_default());
  const core::FileLayoutOptimizer optimizer(topo);
  for (int b = 0; b < 2; ++b) {
    core::OptimizerOptions options;
    options.solver = backends[b].kind;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& app : suite) {
      const parallel::ParallelSchedule schedule(app.program, 64);
      (void)optimizer.optimize(app.program, schedule, options);
    }
    compile_seconds[b] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  }

  std::vector<VariantSpec> variants;
  for (const Backend& backend : backends) {
    core::ExperimentConfig base;
    core::ExperimentConfig opt = base;
    opt.scheme = core::Scheme::kInterNode;
    opt.solver = backend.kind;
    variants.push_back({backend.label, base, opt});
  }
  const auto grid = run_variant_grid(variants, suite);

  util::Table table({"Application", "norm (uni)", "norm (con)",
                     "achieved/bound (uni)", "achieved/bound (con)"});
  double ratio_sum[2] = {0, 0};
  double improvement[2] = {0, 0};
  for (std::size_t a = 0; a < suite.size(); ++a) {
    std::vector<std::string> row{suite[a].name};
    for (int b = 0; b < 2; ++b) {
      row.push_back(util::format_fixed(grid[b][a].normalized_exec(), 2));
    }
    for (int b = 0; b < 2; ++b) {
      const auto& sim = grid[b][a].optimized;
      // The bound is layout-independent, so any achieved < bound is a
      // soundness bug, not a measurement artifact — fail the scenario.
      if (sim.achieved_bytes() < sim.bound_bytes()) {
        ctx.out() << "ERROR: " << suite[a].name << "/" << backends[b].label
                  << " achieved " << sim.achieved_bytes()
                  << " B below the lower bound " << sim.bound_bytes()
                  << " B\n";
        return 1;
      }
      row.push_back(util::format_fixed(sim.achieved_ratio(), 2));
      ratio_sum[b] += sim.achieved_ratio();
    }
    table.add_row(std::move(row));
    ctx.emit(suite[a].name + ".bound_bytes",
             static_cast<double>(grid[0][a].optimized.bound_bytes()));
    ctx.emit(suite[a].name + ".achieved_ratio.unimodular",
             grid[0][a].optimized.achieved_ratio());
    ctx.emit(suite[a].name + ".achieved_ratio.constraint",
             grid[1][a].optimized.achieved_ratio());
  }
  ctx.out() << "BM_SolverAblation — Step I backends: unimodular greedy vs "
               "constraint network\n\n";
  ctx.out() << table << '\n';
  for (int b = 0; b < 2; ++b) {
    improvement[b] = core::average_improvement(grid[b]);
    const double avg_ratio =
        core::safe_average(ratio_sum[b], suite.size());
    ctx.out() << backends[b].label << ": average improvement "
              << util::format_percent(improvement[b])
              << ", average achieved/bound "
              << util::format_fixed(avg_ratio, 2) << '\n';
    ctx.emit(std::string("compile_seconds.") + backends[b].label,
             compile_seconds[b]);
    ctx.emit(std::string("avg_improvement.") + backends[b].label,
             improvement[b]);
    ctx.emit(std::string("avg_achieved_ratio.") + backends[b].label,
             avg_ratio);
  }
  return 0;
}

// Smoke: a two-application default-vs-inter-node pair — the cheapest
// end-to-end pass through compiler, engine, and simulator. CI runs this
// per-commit (`flo_bench --filter smoke`); the full suite stays manual.
int run_smoke(ScenarioContext& ctx) {
  core::ExperimentConfig base;
  core::ExperimentConfig opt = base;
  opt.scheme = core::Scheme::kInterNode;

  auto suite = workloads::workload_suite();
  suite.resize(std::min<std::size_t>(suite.size(), 2));
  const auto rows = run_suite_pair(base, opt, suite);

  util::Table table({"Application", "normalized exec", "improvement"});
  for (std::size_t a = 0; a < suite.size(); ++a) {
    table.add_row({suite[a].name,
                   util::format_fixed(rows[a].normalized_exec(), 2),
                   util::format_percent(rows[a].improvement())});
    ctx.emit(suite[a].name + ".norm_exec", rows[a].normalized_exec());
    ctx.emit(suite[a].name + ".bound_bytes",
             static_cast<double>(rows[a].optimized.bound_bytes()));
    ctx.emit(suite[a].name + ".achieved_ratio",
             rows[a].optimized.achieved_ratio());
  }
  const double avg = core::average_improvement(rows);
  ctx.out() << "Smoke — two-application end-to-end check (default vs "
               "inter-node)\n\n";
  ctx.out() << table << '\n';
  ctx.out() << "average improvement: " << util::format_percent(avg) << '\n';
  ctx.emit("avg_improvement", avg);
  return 0;
}

}  // namespace

void register_extra_scenarios(std::vector<ScenarioSpec>& out) {
  out.push_back({"compile_stats",
                 "Section 5.1 compile-time layout statistics",
                 "Section 5.1: ~72% of arrays optimized",
                 {"paper", "stats"},
                 run_compile_stats});
  out.push_back({"ablation_step1",
                 "Step I weighted vs unweighted reference selection",
                 "DESIGN.md ablation",
                 {"ablation"},
                 run_ablation_step1});
  out.push_back({"ablation_scale",
                 "Stability across the simulation capacity scale",
                 "DESIGN.md ablation",
                 {"ablation"},
                 run_ablation_scale});
  out.push_back({"ablation_prefetch",
                 "Inter-node improvement with storage readahead",
                 "Section 4.2 claim",
                 {"ablation"},
                 run_ablation_prefetch});
  out.push_back({"ablation_template",
                 "Template-hierarchy vs exact per-topology compilation",
                 "Section 4.3 claim",
                 {"ablation"},
                 run_ablation_template});
  out.push_back({"solver_ablation",
                 "BM_SolverAblation: Step I backends' compile time and "
                 "achieved/bound ratio",
                 "optimality accounting extension (not in paper)",
                 {"ablation", "bound"},
                 run_solver_ablation});
  out.push_back({"fault_sweep",
                 "Degradation vs injected storage-fault rate",
                 "robustness extension (not in paper)",
                 {"faults"},
                 run_fault_sweep});
  out.push_back({"calibrate",
                 "Calibration table against every paper target",
                 "Tables 2/3 + Fig. 7(a) targets",
                 {"internal"},
                 run_calibrate});
  out.push_back({"smoke",
                 "Two-application end-to-end check",
                 "CI per-commit scenario",
                 {"smoke"},
                 run_smoke});
}

}  // namespace flo::bench

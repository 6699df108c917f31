#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <string>
#include <typeinfo>
#include <vector>

#include "ir/builder.hpp"
#include "service/server.hpp"
#include "workloads/suite.hpp"

namespace flo::core {
namespace {

/// A compact transposed-heavy program that benefits from the optimizer,
/// over a reduced topology so each experiment runs in milliseconds.
ExperimentConfig small_config() {
  ExperimentConfig config;
  config.topology.compute_nodes = 8;
  config.topology.io_nodes = 4;
  config.topology.storage_nodes = 2;
  config.topology.block_size = 64;
  config.topology.io_cache_bytes = 512;
  config.topology.storage_cache_bytes = 1024;
  config.threads = 8;
  // This suite pins the clock model's relative-timing claims (the
  // paper's model: no cross-thread disk contention). Under the event
  // core this micro-topology legitimately inverts some comparisons —
  // eight disjoint optimized streams over two spindles serialize while
  // the scattered baseline rides shared cache fills; the full
  // workloads still favor the optimizer under both cores.
  config.sim_core = storage::SimCoreKind::kClock;
  return config;
}

ir::Program bench_program() {
  return ir::ProgramBuilder("bench")
      .array("A", {64, 64})
      .nest("sweep", {{0, 63}, {0, 63}}, 0, 3)
      .read("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

TEST(ExperimentTest, InterNodeBeatsDefaultOnScatteredSweep) {
  auto config = small_config();
  const auto p = bench_program();
  const auto baseline = run_experiment(p, config);
  config.scheme = Scheme::kInterNode;
  const auto optimized = run_experiment(p, config);
  EXPECT_LT(optimized.sim.exec_time, baseline.sim.exec_time);
  EXPECT_LT(optimized.sim.io.misses(), baseline.sim.io.misses());
  EXPECT_EQ(optimized.plan.arrays.size(), 1u);
  EXPECT_TRUE(optimized.plan.arrays[0].optimized);
}

TEST(ExperimentTest, DefaultSchemeHasEmptyPlan) {
  const auto result = run_experiment(bench_program(), small_config());
  EXPECT_TRUE(result.plan.arrays.empty());
}

TEST(ExperimentTest, ThreadCountMustMatchComputeNodes) {
  auto config = small_config();
  config.threads = 4;
  EXPECT_THROW(run_experiment(bench_program(), config),
               std::invalid_argument);
}

TEST(ExperimentTest, CompilePlanIsCompileExperimentsPlan) {
  // Every paper app under every inter-node scheme, with both cache
  // capacities scaled as flo_serve scales them, compiled against the exact
  // topology and against its template-family reference.
  const Scheme schemes[] = {Scheme::kInterNode, Scheme::kInterNodeIoOnly,
                            Scheme::kInterNodeStorageOnly};
  const storage::TopologyConfig paper = storage::TopologyConfig::paper_default();
  const std::vector<workloads::Workload> suite = workloads::workload_suite();
  for (const auto& app : suite) {
    for (const Scheme scheme : schemes) {
      for (const double scale : {0.5, 1.0, 2.0}) {
        for (const bool templated : {false, true}) {
          ExperimentConfig config;
          config.scheme = scheme;
          config.topology.io_cache_bytes = static_cast<std::uint64_t>(
              static_cast<double>(paper.io_cache_bytes) * scale);
          config.topology.storage_cache_bytes = static_cast<std::uint64_t>(
              static_cast<double>(paper.storage_cache_bytes) * scale);
          if (templated) {
            config.compile_topology =
                service::family_reference(config.topology);
          }
          SCOPED_TRACE(app.name + " / " + scheme_name(scheme) + " / x" +
                       std::to_string(scale) +
                       (templated ? " / template" : " / exact"));
          EXPECT_EQ(compile_plan(app.program, config).to_string(),
                    compile_experiment(app.program, config).plan.to_string());
        }
      }
    }
  }
  // The default scheme's plan is empty in both.
  const ExperimentConfig plain;
  const auto& app = suite.front();
  EXPECT_TRUE(compile_plan(app.program, plain).arrays.empty());
  EXPECT_EQ(compile_plan(app.program, plain).to_string(),
            compile_experiment(app.program, plain).plan.to_string());
}

TEST(ExperimentTest, CompilePlanChecksWhatCompileExperimentChecks) {
  const auto p = bench_program();
  const auto failure = [&](const auto& compile, ExperimentConfig config) {
    try {
      compile(p, config);
    } catch (const std::exception& e) {
      return std::string(typeid(e).name()) + ": " + e.what();
    }
    return std::string("no exception");
  };
  const auto full = [](const ir::Program& program,
                       const ExperimentConfig& config) {
    (void)compile_experiment(program, config);
  };
  const auto plan = [](const ir::Program& program,
                       const ExperimentConfig& config) {
    (void)compile_plan(program, config);
  };
  ExperimentConfig threads = small_config();
  threads.threads = 4;
  ExperimentConfig topology = small_config();
  topology.topology.io_nodes = 3;  // does not divide 8 compute nodes
  ExperimentConfig compile_topology = small_config();
  compile_topology.compile_topology = compile_topology.topology;
  compile_topology.compile_topology->storage_nodes = 3;
  // Also the schemes whose plan is empty: compile_plan skips their compile
  // but not the checks.
  for (const Scheme scheme :
       {Scheme::kInterNode, Scheme::kDefault, Scheme::kComputationMapping,
        Scheme::kDimensionReindexing}) {
    for (ExperimentConfig config : {threads, topology, compile_topology}) {
      config.scheme = scheme;
      SCOPED_TRACE(scheme_name(scheme));
      const std::string expected = failure(full, config);
      EXPECT_NE(expected, "no exception");
      EXPECT_EQ(failure(plan, config), expected);
    }
  }
}

TEST(ExperimentTest, LayerMaskedSchemesRun) {
  auto config = small_config();
  const auto p = bench_program();
  config.scheme = Scheme::kInterNodeIoOnly;
  const auto io_only = run_experiment(p, config);
  config.scheme = Scheme::kInterNodeStorageOnly;
  const auto storage_only = run_experiment(p, config);
  config.scheme = Scheme::kInterNode;
  const auto both = run_experiment(p, config);
  // All improve on default; both-layer targeting at least matches the
  // single layers on this workload.
  const auto base = run_experiment(p, small_config());
  EXPECT_LT(io_only.sim.exec_time, base.sim.exec_time);
  EXPECT_LT(storage_only.sim.exec_time, base.sim.exec_time);
  EXPECT_LE(both.sim.exec_time, 1.05 * io_only.sim.exec_time);
}

TEST(ExperimentTest, BaselineSchemesRun) {
  auto config = small_config();
  const auto p = bench_program();
  config.scheme = Scheme::kComputationMapping;
  const auto comp = run_experiment(p, config);
  EXPECT_GT(comp.sim.accesses, 0u);
  config.scheme = Scheme::kDimensionReindexing;
  const auto reindex = run_experiment(p, config);
  EXPECT_GT(reindex.profiler_runs, 0u);
  // Reindexing picks the best permutation; never worse than default.
  const auto base = run_experiment(p, small_config());
  EXPECT_LE(reindex.sim.exec_time, base.sim.exec_time * 1.0001);
}

TEST(ExperimentTest, PoliciesRun) {
  auto config = small_config();
  const auto p = bench_program();
  for (const auto policy :
       {storage::PolicyKind::kLruInclusive, storage::PolicyKind::kDemoteLru,
        storage::PolicyKind::kKarma}) {
    config.policy = policy;
    config.scheme = Scheme::kDefault;
    const auto base = run_experiment(p, config);
    config.scheme = Scheme::kInterNode;
    const auto opt = run_experiment(p, config);
    EXPECT_GT(base.sim.accesses, 0u) << storage::policy_name(policy);
    EXPECT_LT(opt.sim.exec_time, base.sim.exec_time)
        << storage::policy_name(policy);
  }
}

TEST(ExperimentTest, DeterministicResults) {
  auto config = small_config();
  config.scheme = Scheme::kInterNode;
  const auto p = bench_program();
  const auto a = run_experiment(p, config);
  const auto b = run_experiment(p, config);
  EXPECT_EQ(a.sim.exec_time, b.sim.exec_time);
  EXPECT_EQ(a.sim.io.hits, b.sim.io.hits);
}

TEST(ExperimentTest, MappingsProduceValidRuns) {
  auto config = small_config();
  const auto p = bench_program();
  for (const auto kind :
       {parallel::MappingKind::kIdentity, parallel::MappingKind::kPermutation2,
        parallel::MappingKind::kPermutation3,
        parallel::MappingKind::kPermutation4}) {
    config.mapping = kind;
    config.scheme = Scheme::kInterNode;
    const auto result = run_experiment(p, config);
    EXPECT_GT(result.sim.accesses, 0u) << parallel::mapping_name(kind);
  }
}

TEST(ExperimentTest, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::kDefault), "default");
  EXPECT_STREQ(scheme_name(Scheme::kInterNode), "inter-node");
  EXPECT_STREQ(scheme_name(Scheme::kDimensionReindexing),
               "dimension reindexing [27]");
}

}  // namespace
}  // namespace flo::core

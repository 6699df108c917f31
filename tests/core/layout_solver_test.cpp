// LayoutSolver seam tests: name/parse round-trips, the guarantee that the
// unimodular backend is byte-identical to calling Step I directly (and
// therefore to every plan the optimizer produced before the seam existed),
// and the constraint-network dominance invariant on the paper suite.
#include "core/layout_solver.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/optimizer.hpp"
#include "ir/builder.hpp"
#include "layout/constraint_network.hpp"
#include "layout/partitioning.hpp"
#include "linalg/unimodular.hpp"
#include "workloads/suite.hpp"

namespace flo::core {
namespace {

storage::StorageTopology small_topology() {
  storage::TopologyConfig c;
  c.compute_nodes = 8;
  c.io_nodes = 4;
  c.storage_nodes = 2;
  c.block_size = 64;
  c.io_cache_bytes = 1024;
  c.storage_cache_bytes = 2048;
  return storage::StorageTopology(c);
}

/// Asserts a finalized partitioning is internally consistent regardless of
/// which backend produced it.
void expect_valid(const layout::ArrayPartitioning& p, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_LE(p.satisfied_weight, p.total_weight);
  EXPECT_LE(p.satisfied_groups, p.total_groups);
  if (!p.partitioned) return;
  EXPECT_GT(p.alpha, 0);
  EXPECT_TRUE(linalg::is_unimodular(p.transform));
  ASSERT_LT(p.partition_dim, p.transform.rows());
  EXPECT_EQ(p.hyperplane, p.transform.row(p.partition_dim));
  EXPECT_LE(p.s_min, p.s_max);
  EXPECT_GT(p.satisfied_weight, 0);
}

void expect_same_partitioning(const layout::ArrayPartitioning& a,
                              const layout::ArrayPartitioning& b) {
  EXPECT_EQ(a.partitioned, b.partitioned);
  EXPECT_EQ(a.transform, b.transform);
  EXPECT_EQ(a.hyperplane, b.hyperplane);
  EXPECT_EQ(a.partition_dim, b.partition_dim);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.primary_nest, b.primary_nest);
  EXPECT_EQ(a.s_min, b.s_min);
  EXPECT_EQ(a.s_max, b.s_max);
  EXPECT_EQ(a.satisfied_weight, b.satisfied_weight);
  EXPECT_EQ(a.total_weight, b.total_weight);
}

TEST(LayoutSolverTest, NamesAndParseRoundTrip) {
  EXPECT_STREQ(solver_name(SolverKind::kUnimodular), "unimodular");
  EXPECT_STREQ(solver_name(SolverKind::kConstraintNetwork), "constraint");
  EXPECT_EQ(parse_solver("unimodular"), SolverKind::kUnimodular);
  EXPECT_EQ(parse_solver("constraint"), SolverKind::kConstraintNetwork);
  EXPECT_EQ(parse_solver(""), std::nullopt);
  EXPECT_EQ(parse_solver("simplex"), std::nullopt);
  for (const SolverKind kind :
       {SolverKind::kUnimodular, SolverKind::kConstraintNetwork}) {
    EXPECT_EQ(parse_solver(solver_name(kind)), kind);
    EXPECT_STREQ(solver_for(kind).name(), solver_name(kind));
  }
}

TEST(LayoutSolverTest, SolverForReturnsSingletons) {
  EXPECT_EQ(&solver_for(SolverKind::kUnimodular),
            &solver_for(SolverKind::kUnimodular));
  EXPECT_EQ(&solver_for(SolverKind::kConstraintNetwork),
            &solver_for(SolverKind::kConstraintNetwork));
  EXPECT_NE(&solver_for(SolverKind::kUnimodular),
            &solver_for(SolverKind::kConstraintNetwork));
}

TEST(LayoutSolverTest, DefaultConfigsFollowProcessDefault) {
  // OptimizerOptions and ExperimentConfig both default to the FLO_SOLVER
  // process-wide choice, so the bench/service/tool layers agree without
  // each plumbing the variable separately.
  EXPECT_EQ(OptimizerOptions{}.solver, solver_from_env());
  EXPECT_EQ(ExperimentConfig{}.solver, solver_from_env());
}

// The reference backend is a pass-through: for every array of every suite
// application it must reproduce layout::partition_array field for field.
TEST(LayoutSolverTest, UnimodularBackendMatchesPartitionArray) {
  const LayoutSolver& uni = solver_for(SolverKind::kUnimodular);
  for (const auto& app : workloads::workload_suite()) {
    SCOPED_TRACE(app.name);
    const parallel::ParallelSchedule schedule(app.program, 64);
    for (ir::ArrayId a = 0; a < app.program.arrays().size(); ++a) {
      expect_same_partitioning(
          uni.solve(app.program, a, schedule, {}),
          layout::partition_array(app.program, a, schedule));
    }
  }
}

// Selecting the unimodular backend explicitly must yield plans
// byte-identical to the default optimizer path (the flo_opt
// --solver=unimodular acceptance bar, checked here at the library level).
TEST(LayoutSolverTest, ExplicitUnimodularPlanIdenticalToDefault) {
  if (solver_from_env() != SolverKind::kUnimodular) {
    GTEST_SKIP() << "FLO_SOLVER overrides the default backend; the "
                    "identity under test only holds for the stock default";
  }
  const FileLayoutOptimizer optimizer(small_topology());
  OptimizerOptions explicit_uni;
  explicit_uni.solver = SolverKind::kUnimodular;
  for (const auto& app : workloads::workload_suite()) {
    SCOPED_TRACE(app.name);
    const parallel::ParallelSchedule schedule(app.program, 8);
    const auto def = optimizer.optimize(app.program, schedule);
    const auto uni = optimizer.optimize(app.program, schedule, explicit_uni);
    EXPECT_EQ(def.plan.to_string(), uni.plan.to_string());
  }
}

// Dominance: the constraint network sees the greedy's hyperplane as one of
// its candidates, so it can never partition fewer arrays or satisfy less
// reference weight than the unimodular greedy.
TEST(LayoutSolverTest, ConstraintNeverSatisfiesLessThanGreedy) {
  for (const auto& app : workloads::workload_suite()) {
    SCOPED_TRACE(app.name);
    const parallel::ParallelSchedule schedule(app.program, 64);
    for (ir::ArrayId a = 0; a < app.program.arrays().size(); ++a) {
      const auto uni = layout::partition_array(app.program, a, schedule);
      const auto con =
          layout::solve_constraint_network(app.program, a, schedule);
      expect_valid(uni, "unimodular");
      expect_valid(con, "constraint");
      EXPECT_EQ(uni.total_weight, con.total_weight);
      EXPECT_GE(con.satisfied_weight, uni.satisfied_weight);
      if (uni.partitioned) {
      EXPECT_TRUE(con.partitioned);
    }
    }
  }
}

ir::Program mixed_program() {
  return ir::ProgramBuilder("mixed")
      .array("big", {64, 64})
      .array("shared", {32, 32})
      .nest("n1", {{0, 63}, {0, 63}}, 0)
      .read("big", {{0, 1}, {1, 0}})
      .done()
      .nest("n2", {{0, 31}, {0, 31}, {0, 31}}, 0)
      .read("shared", {{0, 0, 1}, {0, 1, 0}})
      .done()
      .build();
}

// Degenerate input 1: a single-thread schedule. Partitioning is still
// well-defined (one thread owns every slab); both backends must finalize
// without tripping over the trivial thread decomposition.
TEST(LayoutSolverDegenerateTest, SingleThreadSchedule) {
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 1);
  for (ir::ArrayId a = 0; a < p.arrays().size(); ++a) {
    const auto uni = layout::partition_array(p, a, schedule);
    const auto con = layout::solve_constraint_network(p, a, schedule);
    expect_valid(uni, "unimodular");
    expect_valid(con, "constraint");
    EXPECT_GE(con.satisfied_weight, uni.satisfied_weight);
    if (uni.partitioned) {
      EXPECT_TRUE(con.partitioned);
    }
  }
}

// Degenerate input 2: single-dimension arrays. The hyperplane space is
// one-dimensional, so Step I either finds d = (1) or nothing at all.
TEST(LayoutSolverDegenerateTest, SingleDimensionArrays) {
  // good: indexed by the parallel loop only -> d = (1) works.
  // bad: indexed by the sequential loop -> every thread sweeps the whole
  // array, no nonzero d separates threads.
  const auto p = ir::ProgramBuilder("one_dim")
                     .array("good", {64})
                     .array("bad", {64})
                     .nest("n", {{0, 63}, {0, 63}}, 0)
                     .read("good", {{1, 0}})
                     .read("bad", {{0, 1}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 8);
  for (const SolverKind kind :
       {SolverKind::kUnimodular, SolverKind::kConstraintNetwork}) {
    SCOPED_TRACE(solver_name(kind));
    const auto good = solver_for(kind).solve(p, 0, schedule, {});
    expect_valid(good, "good");
    ASSERT_TRUE(good.partitioned);
    EXPECT_EQ(good.hyperplane, (linalg::IntVector{1}));
    EXPECT_EQ(good.alpha, 1);
    const auto bad = solver_for(kind).solve(p, 1, schedule, {});
    expect_valid(bad, "bad");
    EXPECT_FALSE(bad.partitioned);
  }
}

// Degenerate input 3: the unweighted ablation option. Both backends must
// honor it (program-order group consideration) and the dominance invariant
// must survive, since the constraint network anchors on the same greedy.
TEST(LayoutSolverDegenerateTest, UnweightedOptions) {
  layout::PartitioningOptions unweighted;
  unweighted.weighted = false;
  for (const auto& app : workloads::workload_suite()) {
    SCOPED_TRACE(app.name);
    const parallel::ParallelSchedule schedule(app.program, 64);
    for (ir::ArrayId a = 0; a < app.program.arrays().size(); ++a) {
      const auto uni =
          layout::partition_array(app.program, a, schedule, unweighted);
      const auto con = layout::solve_constraint_network(app.program, a,
                                                        schedule, unweighted);
      expect_valid(uni, "unimodular");
      expect_valid(con, "constraint");
      EXPECT_GE(con.satisfied_weight, uni.satisfied_weight);
      if (uni.partitioned) {
      EXPECT_TRUE(con.partitioned);
    }
    }
  }
}

}  // namespace
}  // namespace flo::core

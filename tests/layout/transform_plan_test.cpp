#include "layout/transform_plan.hpp"

#include <gtest/gtest.h>

namespace flo::layout {
namespace {

ArrayTransformPlan optimized_plan() {
  ArrayTransformPlan plan;
  // Moved in, not assigned from "A": GCC 12 at -O3 reports a false
  // -Wrestrict for the literal assignment inlined here.
  plan.array_name = std::string("A");
  plan.optimized = true;
  plan.partitioning.partitioned = true;
  plan.partitioning.transform = linalg::IntMatrix{{0, 1}, {1, 0}};
  plan.partitioning.hyperplane = {0, 1};
  plan.partitioning.alpha = 1;
  plan.partitioning.beta = 0;
  plan.partitioning.s_min = 0;
  plan.partitioning.s_max = 63;
  plan.partitioning.satisfied_groups = 1;
  plan.partitioning.total_groups = 2;
  plan.partitioning.satisfied_weight = 100;
  plan.partitioning.total_weight = 150;
  plan.pattern_elements = {128, 512, 2048};
  plan.chunk_elements = 64;
  return plan;
}

TEST(ArrayTransformPlanTest, OptimizedRendering) {
  const std::string s = optimized_plan().to_string();
  EXPECT_NE(s.find("A: optimized"), std::string::npos);
  EXPECT_NE(s.find("d = (0, 1)"), std::string::npos);
  EXPECT_NE(s.find("1*i_u + 0"), std::string::npos);
  EXPECT_NE(s.find("chunk = 64"), std::string::npos);
  EXPECT_NE(s.find("1/2 access-matrix groups"), std::string::npos);
  EXPECT_NE(s.find("100/150"), std::string::npos);
}

TEST(ArrayTransformPlanTest, UnoptimizedRendering) {
  ArrayTransformPlan plan;
  plan.array_name = "X";
  const std::string s = plan.to_string();
  EXPECT_NE(s.find("X: not optimized"), std::string::npos);
}

TEST(ProgramTransformPlanTest, CountsAndFraction) {
  ProgramTransformPlan plan;
  plan.program_name = "app";
  plan.arrays.push_back(optimized_plan());
  ArrayTransformPlan skipped;
  skipped.array_name = "X";
  plan.arrays.push_back(skipped);
  EXPECT_EQ(plan.optimized_count(), 1u);
  EXPECT_DOUBLE_EQ(plan.optimized_fraction(), 0.5);
  const std::string s = plan.to_string();
  EXPECT_NE(s.find("1/2 arrays optimized"), std::string::npos);
}

TEST(ProgramTransformPlanTest, EmptyPlan) {
  ProgramTransformPlan plan;
  EXPECT_EQ(plan.optimized_fraction(), 0.0);
}

}  // namespace
}  // namespace flo::layout

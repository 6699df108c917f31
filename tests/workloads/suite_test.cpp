#include "workloads/suite.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ir/printer.hpp"
#include "ir/validate.hpp"
#include "layout/partitioning.hpp"
#include "parallel/schedule.hpp"

namespace flo::workloads {
namespace {

TEST(SuiteTest, SixteenApplicationsInTable2Order) {
  const auto suite = workload_suite();
  ASSERT_EQ(suite.size(), 16u);
  const auto& names = workload_names();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, names[i]);
  }
}

TEST(SuiteTest, AllProgramsValidate) {
  for (const auto& app : workload_suite()) {
    const auto issues = ir::validate(app.program);
    EXPECT_TRUE(issues.empty())
        << app.name << ": " << (issues.empty() ? "" : issues.front());
  }
}

TEST(SuiteTest, GroupsMatchThePaper) {
  std::map<std::string, int> group;
  for (const auto& app : workload_suite()) group[app.name] = app.group;
  EXPECT_EQ(group["cc-ver-1"], 1);
  EXPECT_EQ(group["s3asim"], 1);
  EXPECT_EQ(group["twer"], 1);
  EXPECT_EQ(group["bt"], 2);
  EXPECT_EQ(group["mgrid"], 2);
  EXPECT_EQ(group["swim"], 3);
  EXPECT_EQ(group["sp"], 3);
}

TEST(SuiteTest, MasterSlaveFlagsMatchSection53) {
  // "cc-ver-2, afores and sar ... mostly implement a master-slave model".
  std::map<std::string, bool> ms;
  for (const auto& app : workload_suite()) ms[app.name] = app.master_slave;
  EXPECT_TRUE(ms["cc-ver-2"]);
  EXPECT_TRUE(ms["afores"]);
  EXPECT_TRUE(ms["sar"]);
  EXPECT_FALSE(ms["bt"]);
  EXPECT_FALSE(ms["swim"]);
}

TEST(SuiteTest, ArrayCountsMatchSection51) {
  // "ranges from 3 (in benchmark afores) to 17 (in benchmark twer)".
  std::size_t min_arrays = 1000, max_arrays = 0;
  std::string min_name, max_name;
  for (const auto& app : workload_suite()) {
    const std::size_t n = app.program.arrays().size();
    if (n < min_arrays) {
      min_arrays = n;
      min_name = app.name;
    }
    if (n > max_arrays) {
      max_arrays = n;
      max_name = app.name;
    }
  }
  EXPECT_EQ(min_name, "afores");
  EXPECT_EQ(min_arrays, 3u);
  EXPECT_EQ(max_name, "twer");
  EXPECT_EQ(max_arrays, 17u);
}

TEST(SuiteTest, AllS3asimArraysPartitionable) {
  // "we were able to optimize the layouts of all arrays in s3asim".
  const auto app = workload_by_name("s3asim");
  const parallel::ParallelSchedule schedule(app.program, 64);
  for (ir::ArrayId a = 0; a < app.program.arrays().size(); ++a) {
    const auto part = layout::partition_array(app.program, a, schedule);
    EXPECT_TRUE(part.partitioned)
        << "array " << app.program.array(a).name() << " not partitionable";
  }
}

TEST(SuiteTest, TwerHasConflictingReferences) {
  const auto app = workload_by_name("twer");
  const parallel::ParallelSchedule schedule(app.program, 64);
  // The conflicted field arrays can satisfy only one of two groups.
  const auto part = layout::partition_array(app.program, 0, schedule);
  ASSERT_TRUE(part.partitioned);
  EXPECT_EQ(part.total_groups, 2u);
  EXPECT_EQ(part.satisfied_groups, 1u);
}

TEST(SuiteTest, PaperRowsPopulated) {
  for (const auto& app : workload_suite()) {
    EXPECT_GT(app.paper.io_miss, 0.0) << app.name;
    EXPECT_GT(app.paper.storage_miss, 0.0) << app.name;
    EXPECT_GT(app.paper.norm_io_miss, 0.0) << app.name;
    EXPECT_STRNE(app.paper.exec_time, "") << app.name;
  }
}

TEST(SuiteTest, UnknownNameThrows) {
  EXPECT_THROW(workload_by_name("nope"), std::invalid_argument);
}

TEST(SuiteTest, ByNameMatchesSuiteEntry) {
  const auto direct = workload_by_name("swim");
  EXPECT_EQ(direct.group, 3);
  EXPECT_EQ(direct.program.name(), "swim");
}

TEST(SuiteTest, ByNameBuildsTheSuiteEntryForEveryName) {
  const auto suite = workload_suite();
  for (const auto& app : suite) {
    const auto direct = workload_by_name(app.name);
    EXPECT_EQ(direct.name, app.name);
    EXPECT_EQ(direct.group, app.group) << app.name;
    EXPECT_EQ(direct.master_slave, app.master_slave) << app.name;
    EXPECT_EQ(ir::to_pseudocode(direct.program),
              ir::to_pseudocode(app.program))
        << app.name;
  }
}

TEST(SuiteTest, ProgramsAreDeterministic) {
  const auto a = workload_by_name("bt");
  const auto b = workload_by_name("bt");
  EXPECT_EQ(a.program.arrays().size(), b.program.arrays().size());
  EXPECT_EQ(a.program.nests().size(), b.program.nests().size());
  for (std::size_t n = 0; n < a.program.nests().size(); ++n) {
    EXPECT_EQ(a.program.nests()[n].reference_trip_count(),
              b.program.nests()[n].reference_trip_count());
  }
}

}  // namespace
}  // namespace flo::workloads

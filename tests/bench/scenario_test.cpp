// Scenario-registry tests: registry completeness, golden coverage, glob
// filtering, the smoke scenario end to end, and the guarantee that
// enabling metrics leaves scenario stdout byte-identical.
#include "bench/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace flo::bench {
namespace {

TEST(ScenarioRegistryTest, EveryHistoricalBinaryHasAScenario) {
  const std::set<std::string> expected = {
      "table2",        "table3",           "fig7a",
      "fig7b",         "fig7c",            "fig7d",
      "fig7e",         "fig7f",            "fig7g",
      "fig7h",         "compile_stats",    "ablation_step1",
      "ablation_scale", "ablation_prefetch", "ablation_template",
      "solver_ablation", "fault_sweep",    "calibrate",
      "smoke",         "tenant_mix",       "chunk_analytics",
      "write_path",    "tenant_qos"};
  std::set<std::string> actual;
  for (const auto& spec : scenarios()) {
    EXPECT_TRUE(actual.insert(spec.name).second)
        << "duplicate scenario name: " << spec.name;
    EXPECT_NE(spec.run, nullptr) << spec.name;
    EXPECT_FALSE(spec.title.empty()) << spec.name;
  }
  EXPECT_EQ(actual, expected);
}

// Each golden file becomes one golden.<scenario>.<core> ctest
// (bench/CMakeLists.txt), so a scenario without both files would go
// unchecked on that core.
TEST(ScenarioRegistryTest, EveryScenarioHasAGoldenPerCore) {
  for (const auto& spec : scenarios()) {
    for (const std::string core : {"clock", "event"}) {
      const std::filesystem::path golden =
          std::filesystem::path(FLO_GOLDEN_DIR) /
          (spec.name + "." + core + ".txt");
      EXPECT_TRUE(std::filesystem::is_regular_file(golden))
          << "missing " << golden.string() << ": write it from the stdout "
          << "of FLO_SIM=" << core << " flo_bench --filter " << spec.name;
    }
  }
}

TEST(ScenarioRegistryTest, FindScenario) {
  ASSERT_NE(find_scenario("fig7a"), nullptr);
  EXPECT_EQ(find_scenario("fig7a")->name, "fig7a");
  EXPECT_EQ(find_scenario("nope"), nullptr);
}

TEST(GlobMatchTest, Basics) {
  EXPECT_TRUE(glob_match("fig7a", "fig7a"));
  EXPECT_FALSE(glob_match("fig7a", "fig7b"));
  EXPECT_TRUE(glob_match("fig7*", "fig7a"));
  EXPECT_TRUE(glob_match("fig7*", "fig7h"));
  EXPECT_FALSE(glob_match("fig7*", "xfig7a"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig7?", "fig7a"));
  EXPECT_FALSE(glob_match("fig7?", "fig7"));
  EXPECT_TRUE(glob_match("*7a", "fig7a"));
  EXPECT_TRUE(glob_match("f*g*a", "fig7a"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_TRUE(glob_match("*", ""));
}

TEST(GlobMatchTest, MatchesTagsToo) {
  const auto figures = match_scenarios("figure");
  EXPECT_EQ(figures.size(), 8u);  // fig7a..fig7h carry the "figure" tag
  const auto by_name = match_scenarios("fig7*");
  EXPECT_EQ(by_name.size(), 8u);
  const auto none = match_scenarios("no-such-thing");
  EXPECT_TRUE(none.empty());
}

TEST(SmokeScenarioTest, RunsAndEmitsHeadlineRows) {
  const ScenarioSpec* spec = find_scenario("smoke");
  ASSERT_NE(spec, nullptr);
  std::ostringstream os;
  ScenarioContext ctx(os);
  ctx.set_scenario("smoke");
  EXPECT_EQ(spec->run(ctx), 0);
  EXPECT_NE(os.str().find("average improvement:"), std::string::npos);
  ASSERT_FALSE(ctx.rows().empty());
  bool saw_average = false;
  for (const auto& row : ctx.rows()) {
    EXPECT_EQ(row.scenario, "smoke");
    saw_average |= row.key == "avg_improvement";
  }
  EXPECT_TRUE(saw_average);
}

// The tentpole guarantee: flipping metrics on must not change a scenario's
// human-readable output by a single byte.
TEST(SmokeScenarioTest, MetricsOnLeavesStdoutByteIdentical) {
  const ScenarioSpec* spec = find_scenario("smoke");
  ASSERT_NE(spec, nullptr);

  std::ostringstream off;
  {
    ASSERT_FALSE(obs::enabled());
    ScenarioContext ctx(off);
    ctx.set_scenario("smoke");
    ASSERT_EQ(spec->run(ctx), 0);
  }

  std::ostringstream on;
  obs::set_enabled(true);
  {
    ScenarioContext ctx(on);
    ctx.set_scenario("smoke");
    ASSERT_EQ(spec->run(ctx), 0);
  }
  obs::set_enabled(false);

  // Metrics were recorded on the side...
  bool saw_cells = false;
  for (const auto& sample : obs::registry().snapshot()) {
    saw_cells |= sample.name == "engine.cells_total" && sample.value > 0;
  }
  EXPECT_TRUE(saw_cells);
  obs::registry().reset();
  obs::recorder().clear();

  // ...and stdout is untouched.
  EXPECT_EQ(off.str(), on.str());
}

}  // namespace
}  // namespace flo::bench

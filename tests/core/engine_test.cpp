#include "core/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>

#include "ir/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "workloads/suite.hpp"

namespace flo::core {
namespace {

ir::Program tiny_program(std::int64_t n = 32) {
  return ir::ProgramBuilder("tiny")
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0, /*repeat=*/2)
      .read("A", {{1, 0}, {0, 1}})
      .write("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

TEST(ExperimentEngineTest, ResultsComeBackInJobOrder) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentConfig inter = base;
  inter.scheme = Scheme::kInterNode;
  ExperimentEngine engine(EngineOptions{4});
  const auto results =
      engine.run({{"base", &p, base}, {"inter", &p, inter},
                  {"base-again", &p, base}});
  ASSERT_EQ(results.size(), 3u);
  // Identical jobs give identical results, and each slot matches what a
  // direct serial run_experiment of that job produces.
  EXPECT_EQ(results[0].sim, results[2].sim);
  EXPECT_EQ(results[0].sim, run_experiment(p, base).sim);
  EXPECT_EQ(results[1].sim, run_experiment(p, inter).sim);
}

TEST(ExperimentEngineTest, EmptyJobListIsFine) {
  ExperimentEngine engine(EngineOptions{4});
  EXPECT_TRUE(engine.run({}).empty());
}

TEST(ExperimentEngineTest, WorkerCountResolved) {
  EXPECT_EQ(ExperimentEngine(EngineOptions{3}).workers(), 3u);
  EXPECT_GE(ExperimentEngine(EngineOptions{0}).workers(), 1u);
}

TEST(ExperimentEngineTest, NullProgramThrowsWithLowestJobIndexFirst) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentEngine engine(EngineOptions{4});
  EXPECT_THROW(
      engine.run({{"ok", &p, base}, {"bad", nullptr, base}}),
      std::invalid_argument);
}

TEST(ExperimentEngineTest, SharedCompilationMatchesIndependentCompilation) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentConfig karma = base;
  karma.policy = storage::PolicyKind::kKarma;
  // Same compile signature (scheme/layouts), different policy: the shared
  // compile cache must not change the simulated results.
  const std::vector<ExperimentJob> jobs{{"lru", &p, base},
                                        {"karma", &p, karma}};
  ExperimentEngine shared(EngineOptions{2, /*share_compilations=*/true});
  ExperimentEngine isolated(EngineOptions{2, /*share_compilations=*/false});
  const auto a = shared.run(jobs);
  const auto b = isolated.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sim, b[i].sim) << jobs[i].label;
  }
}

TEST(ExperimentGridTest, ExpandsAppsOutermostSchemesInnermost) {
  const auto p = tiny_program();
  const auto q = tiny_program(16);
  ExperimentGrid grid;
  grid.apps = {{"p", &p}, {"q", &q}};
  grid.schemes = {Scheme::kDefault, Scheme::kInterNode};
  grid.policies = {storage::PolicyKind::kLruInclusive,
                   storage::PolicyKind::kKarma};
  const auto jobs = grid.expand();
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].program, &p);
  EXPECT_EQ(jobs[0].config.scheme, Scheme::kDefault);
  EXPECT_EQ(jobs[1].config.scheme, Scheme::kInterNode);
  EXPECT_EQ(jobs[2].config.policy, storage::PolicyKind::kKarma);
  EXPECT_EQ(jobs[4].program, &q);
}

TEST(ExperimentGridTest, EmptyAxesFallBackToBaseConfig) {
  const auto p = tiny_program();
  ExperimentGrid grid;
  grid.apps = {{"p", &p}};
  grid.base.policy = storage::PolicyKind::kDemoteLru;
  const auto jobs = grid.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].config.policy, storage::PolicyKind::kDemoteLru);
}

/// Metrics on, from zero, for one test; off and zeroed again after it.
class ObsOn {
 public:
  ObsOn() {
    obs::registry().reset();
    obs::set_enabled(true);
  }
  ~ObsOn() {
    obs::set_enabled(false);
    obs::registry().reset();
    obs::recorder().clear();
  }
};

std::int64_t compiles_live() {
  return obs::registry().gauge("engine.compiles_live").value();
}

double peak_compiles_live() {
  return obs::registry().histogram("engine.compiles_live_at_insert").max();
}

TEST(ExperimentEngineTest, CellsThatShareACompileRunBackToBack) {
  const auto p = tiny_program(16);
  const auto q = tiny_program(24);
  const auto r = tiny_program(32);
  ExperimentConfig lru;
  ExperimentConfig karma = lru;
  karma.policy = storage::PolicyKind::kKarma;
  // The default scheme's compile ignores the policy: p's two cells share
  // one compile, and so do q's.
  const std::vector<ExperimentJob> jobs{{"p/lru", &p, lru},
                                        {"q/lru", &q, lru},
                                        {"p/karma", &p, karma},
                                        {"r/lru", &r, lru},
                                        {"q/karma", &q, karma}};
  const auto hand_out = [&](bool share) {
    std::vector<std::string> seen;
    EngineOptions options;
    options.workers = 1;
    options.share_compilations = share;
    options.runner = [&](const ExperimentJob& job) {
      seen.push_back(job.label);
      ExperimentResult result;
      result.sim.accesses = job.label.size();
      return result;
    };
    const auto results = ExperimentEngine(options).run_guarded(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(results[i].result.sim.accesses, jobs[i].label.size());
    }
    return seen;
  };
  // Groups in order of their key's first appearance, cells within a group
  // by index; without sharing, submission order.
  EXPECT_EQ(hand_out(true), (std::vector<std::string>{
                                "p/lru", "p/karma", "q/lru", "q/karma",
                                "r/lru"}));
  EXPECT_EQ(hand_out(false), (std::vector<std::string>{
                                 "p/lru", "q/lru", "p/karma", "r/lru",
                                 "q/karma"}));
}

// Eight compiles (four programs x two schemes) under three policies each,
// shuffled so a compile's cells are spread over the submission. Four
// workers hold at most five compiles at once, and the results are those of
// one worker and of per-cell compilation, bit for bit.
TEST(ExperimentEngineTest, ShuffledGridHoldsAtMostWorkersPlusOneCompiles) {
  std::vector<ir::Program> programs;
  for (const std::int64_t n : {16, 24, 32, 40}) {
    programs.push_back(tiny_program(n));
  }
  ExperimentGrid grid;
  for (std::size_t a = 0; a < programs.size(); ++a) {
    grid.apps.push_back({"app" + std::to_string(a), &programs[a]});
  }
  grid.schemes = {Scheme::kDefault, Scheme::kInterNode};
  grid.policies = {storage::PolicyKind::kLruInclusive,
                   storage::PolicyKind::kDemoteLru,
                   storage::PolicyKind::kKarma};
  std::vector<ExperimentJob> jobs = grid.expand();
  ASSERT_EQ(jobs.size(), 24u);
  std::mt19937 rng(7);
  std::shuffle(jobs.begin(), jobs.end(), rng);

  constexpr std::size_t kWorkers = 4;
  std::vector<ExperimentResult> pooled;
  {
    const ObsOn obs_on;
    pooled = ExperimentEngine(EngineOptions{kWorkers}).run(jobs);
    EXPECT_GE(peak_compiles_live(), 1.0);
    EXPECT_LE(peak_compiles_live(), static_cast<double>(kWorkers + 1));
    EXPECT_EQ(compiles_live(), 0);
    // Each compile ran once: none was dropped before its last cell.
    EXPECT_EQ(
        obs::registry().counter("engine.compile_cache_misses").value(), 8u);
  }
  const auto serial = ExperimentEngine(EngineOptions{1}).run(jobs);
  const auto unshared =
      ExperimentEngine(EngineOptions{kWorkers, /*share_compilations=*/false})
          .run(jobs);
  ASSERT_EQ(pooled.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(pooled[i].sim, serial[i].sim) << jobs[i].label;
    EXPECT_EQ(pooled[i].sim, unshared[i].sim) << jobs[i].label;
    EXPECT_EQ(pooled[i].plan.to_string(), serial[i].plan.to_string())
        << jobs[i].label;
    EXPECT_EQ(pooled[i].plan.to_string(), unshared[i].plan.to_string())
        << jobs[i].label;
  }
}

// A group's compile is dropped however its last cell ends: after a
// failure, after a journal restore, and after transient retries. On one
// worker the failing and the restored cell run after the cell that
// compiles. The retries go through the runner hook, which compiles
// nothing: releasing a group whose key never entered the cache must leave
// the count where it is.
TEST(ExperimentEngineTest, EveryWayACellEndsReleasesItsCompile) {
  const auto p = tiny_program();
  ExperimentConfig lru;
  ExperimentConfig karma = lru;
  karma.policy = storage::PolicyKind::kKarma;
  // Same compile key as `lru` (the default scheme ignores the topology),
  // but the simulation rejects it.
  ExperimentConfig broken = lru;
  broken.topology.block_size = 0;
  const ObsOn obs_on;

  const auto failed = ExperimentEngine(EngineOptions{1}).run_guarded(
      {{"ok", &p, lru}, {"broken", &p, broken}});
  EXPECT_FALSE(failed[0].failed);
  EXPECT_TRUE(failed[1].failed);
  EXPECT_EQ(peak_compiles_live(), 1.0);
  EXPECT_EQ(compiles_live(), 0);

  const std::string journal = testing::TempDir() + "/release." +
                              std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());
  EngineOptions journaled{1};
  journaled.journal_path = journal;
  ExperimentEngine(journaled).run_guarded({{"karma", &p, karma}});
  EXPECT_EQ(compiles_live(), 0);
  const auto resumed = ExperimentEngine(journaled).run_guarded(
      {{"lru", &p, lru}, {"karma", &p, karma}});
  std::remove(journal.c_str());
  EXPECT_FALSE(resumed[0].from_journal);
  EXPECT_TRUE(resumed[1].from_journal);
  EXPECT_EQ(resumed[0].result.sim, run_experiment(p, lru).sim);
  EXPECT_EQ(compiles_live(), 0);

  EngineOptions retrying{2};
  retrying.max_retries = 1;
  std::mutex mutex;
  int flaky_calls = 0;
  retrying.runner = [&](const ExperimentJob& job) -> ExperimentResult {
    if (job.label == "dead") throw TransientError("always");
    const std::lock_guard<std::mutex> lock(mutex);
    if (job.label == "flaky" && flaky_calls++ == 0) {
      throw TransientError("once");
    }
    return {};
  };
  const auto retried = ExperimentEngine(retrying).run_guarded(
      {{"flaky", &p, lru}, {"dead", &p, karma}, {"ok", &p, broken}});
  EXPECT_FALSE(retried[0].failed);
  EXPECT_EQ(retried[0].attempts, 2u);
  EXPECT_TRUE(retried[1].failed);
  EXPECT_EQ(retried[1].attempts, 2u);
  EXPECT_FALSE(retried[2].failed);
  EXPECT_EQ(compiles_live(), 0);
}

// Satellite acceptance: 1 worker and N workers produce byte-identical
// SimulationResults over the full Table 2 grid (both schemes, every
// workload). SimulationResult::operator== is bitwise-strict, including
// per-thread times.
TEST(ExperimentEngineTest, DeterministicAcrossWorkerCounts) {
  const auto suite = workloads::workload_suite();
  ExperimentGrid grid;
  for (const auto& app : suite) grid.apps.push_back({app.name, &app.program});
  grid.schemes = {Scheme::kDefault, Scheme::kInterNode};
  const auto jobs = grid.expand();

  ExperimentEngine serial(EngineOptions{1});
  ExperimentEngine pooled(EngineOptions{4});
  const auto a = serial.run(jobs);
  const auto b = pooled.run(jobs);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(a[i].sim, b[i].sim) << jobs[i].label;
    EXPECT_EQ(a[i].plan.to_string(), b[i].plan.to_string()) << jobs[i].label;
  }
}

}  // namespace
}  // namespace flo::core

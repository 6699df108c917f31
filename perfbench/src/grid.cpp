// paper_grid and write_mix: experiment grids submitted to one
// ExperimentEngine through run_guarded, so a failed cell is counted rather
// than fatal. The traced round runs the same jobs through the same engine
// with its runner hook set to the benchmark's timed cell: compile through a
// benchmark-owned CompileCache keyed by compile_fingerprint (the engine's
// dedup), then simulate through probes.hpp.
#include <array>
#include <mutex>

#include "common.hpp"
#include "core/compile_cache.hpp"
#include "core/engine.hpp"
#include "probes.hpp"
#include "workloads/analytics.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace {

namespace core = flo::core;
namespace fs = flo::storage;

constexpr std::size_t kWorkers = 4;

/// Every knob the cells read, set explicitly so nothing falls back to a
/// process default.
core::ExperimentConfig pinned_config() {
  core::ExperimentConfig config;
  config.sim_core = fs::SimCoreKind::kClock;
  config.solver = core::SolverKind::kUnimodular;
  config.trace = core::TraceMode::kStreaming;
  return config;
}

const char* short_policy(fs::PolicyKind policy) {
  switch (policy) {
    case fs::PolicyKind::kLruInclusive: return "lru";
    case fs::PolicyKind::kDemoteLru: return "demote";
    case fs::PolicyKind::kKarma: return "karma";
    default: return "other";
  }
}

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::uint64_t seed, bool write_family)
      : seed_(seed), write_family_(write_family) {}

  void setup() override {
    programs_.clear();
    jobs_.clear();
    if (write_family_) {
      build_write_mix();
    } else {
      build_paper_grid();
    }
  }

  std::string describe() const override { return description_; }

  RoundResult run(bool traced) override {
    return traced ? run_traced() : run_untraced();
  }

  /// The traced cell is traced_simulate, a copy of simulate_experiment's
  /// streaming path. Bands recorded from traced runs on a 4-vCPU x86 VM.
  OverheadBand overhead_band() const override {
    const char* copied = "core::simulate_experiment (probes.cpp)";
    return write_family_ ? OverheadBand{1.0, 2.6, copied}
                         : OverheadBand{0.8, 2.2, copied};
  }

 private:
  /// The 16 Table 2 apps x {default, inter-node} x {LRU-inclusive,
  /// DEMOTE-LRU, KARMA}. The seed draws each app's Fig. 7(b) thread mapping
  /// and the order the cells are submitted in.
  void build_paper_grid() {
    SplitMix rng(seed_);
    programs_ = flo::workloads::workload_suite();
    constexpr std::array<flo::parallel::MappingKind, 4> kMappings = {
        flo::parallel::MappingKind::kIdentity,
        flo::parallel::MappingKind::kPermutation2,
        flo::parallel::MappingKind::kPermutation3,
        flo::parallel::MappingKind::kPermutation4};
    constexpr std::array<const char*, 4> kRoman = {"I", "II", "III", "IV"};
    description_ = "mappings";
    for (const auto& app : programs_) {
      const std::size_t m = rng.below(kMappings.size());
      const auto mapping = kMappings[m];
      description_ += " " + app.name + "=" + kRoman[m];
      for (const core::Scheme scheme :
           {core::Scheme::kDefault, core::Scheme::kInterNode}) {
        for (const fs::PolicyKind policy :
             {fs::PolicyKind::kLruInclusive, fs::PolicyKind::kDemoteLru,
              fs::PolicyKind::kKarma}) {
          core::ExperimentJob job;
          job.label = app.name + "/" + core::scheme_name(scheme) + "/" +
                      short_policy(policy);
          job.program = &app.program;
          job.config = pinned_config();
          job.config.mapping = mapping;
          job.config.scheme = scheme;
          job.config.policy = policy;
          jobs_.push_back(std::move(job));
        }
      }
    }
    rng.shuffle(jobs_);
  }

  /// The write family (read-modify-write sweep, append log) and the chunk
  /// family (overlapping windows, roll-up) under model_writes, default vs
  /// inter-node. The seed draws the append log's and both chunk programs'
  /// shapes from fixed sets whose shapes issue the same number of element
  /// accesses over arrays of about the same size, so neither the work nor
  /// the memory of a round depends on the seed. The read-modify-write sweep
  /// keeps its square 1024^2 footprint.
  void build_write_mix() {
    SplitMix rng(seed_);
    struct Slab { std::int64_t rows, cols; };
    constexpr std::array<Slab, 3> kLog = {{{1024, 1024}, {2048, 512}, {4096, 256}}};
    struct Window { std::int64_t windows, win, step; };
    constexpr std::array<Window, 3> kWindows = {{{128, 8, 4}, {64, 16, 8}, {256, 4, 2}}};
    const Slab log = kLog[rng.below(kLog.size())];
    const Window sweep = kWindows[rng.below(kWindows.size())];
    const Window rollup = kWindows[rng.below(kWindows.size())];
    programs_.push_back(flo::workloads::make_rmw_update(1024, 2));
    programs_.push_back(flo::workloads::make_append_log(log.rows, log.cols, 2));
    programs_.push_back(flo::workloads::make_chunk_window(
        sweep.windows, sweep.win, sweep.step, 512, 2));
    programs_.push_back(flo::workloads::make_chunk_rollup(
        rollup.windows, rollup.win, rollup.step, 512, 2));
    const auto shape = [](const Window& w) {
      return std::to_string(w.windows) + "x" + std::to_string(w.win) + "/" +
             std::to_string(w.step);
    };
    description_ = "append_log " +
                   std::to_string(log.rows) + "x" + std::to_string(log.cols) +
                   ", chunk_window " + shape(sweep) + ", chunk_rollup " +
                   shape(rollup);
    for (const auto& app : programs_) {
      for (const core::Scheme scheme :
           {core::Scheme::kDefault, core::Scheme::kInterNode}) {
        core::ExperimentJob job;
        job.label = app.name + "/" + core::scheme_name(scheme);
        job.program = &app.program;
        job.config = pinned_config();
        job.config.topology.model_writes = true;
        job.config.scheme = scheme;
        jobs_.push_back(std::move(job));
      }
    }
  }

  /// paper_grid's 96 cells keep kWorkers busy to the end. write_mix has 8:
  /// on 4 workers each ran two and the round waited for the slowest, so it
  /// runs on 2.
  core::EngineOptions engine_options() const {
    core::EngineOptions options;
    options.workers = write_family_ ? 2 : kWorkers;
    return options;
  }

  /// Digests, work and invariants of one round's cells.
  void collect(const std::vector<core::JobResult>& results,
               RoundResult& round) const {
    std::uint64_t disk_writes = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const core::JobResult& r = results[i];
      Digest d;
      d.u64(r.failed ? 1 : 0);
      ++round.attempted;
      if (r.failed) {
        ++round.failed;
        round.violations.push_back(jobs_[i].label + ": failed: " + r.reason);
      } else {
        d.u64(digest_result(r.result.sim));
        d.u64(r.result.profiler_runs);
        round.work += static_cast<double>(r.result.sim.accesses);
        check_bound(jobs_[i].label, r.result.sim, round.violations);
        disk_writes += r.result.sim.disk_writes;
      }
      round.outputs.items[jobs_[i].label] = d.value();
    }
    if (write_family_ && disk_writes == 0) {
      round.violations.push_back(
          "write_mix: no disk writes, so the write-back path never ran");
    }
  }

  RoundResult run_untraced() {
    core::ExperimentEngine engine(engine_options());
    RoundResult round;
    const Stopwatch watch;
    const std::vector<core::JobResult> results = engine.run_guarded(jobs_);
    watch.stop(round);
    collect(results, round);
    return round;
  }

  RoundResult run_traced() {
    auto cache = std::make_shared<core::CompileCache>();
    std::mutex mutex;
    SimTrace sim_total;
    std::vector<double> compile_s;
    double busy_s = 0;

    core::EngineOptions options = engine_options();
    options.share_compilations = false;  // the runner dedups instead
    options.runner = [&](const core::ExperimentJob& job) {
      const double start = now_s();
      const std::string key = core::compile_fingerprint(
          core::program_fingerprint(*job.program), job.config);
      double compile_seconds = -1;
      const core::CompiledPtr compiled = cache->get_or_compile(key, [&] {
        const double t0 = now_s();
        core::CompiledExperiment out =
            core::compile_experiment(*job.program, job.config);
        compile_seconds = now_s() - t0;
        return out;
      });
      SimTrace sim;
      core::ExperimentResult result;
      result.sim = traced_simulate(*job.program, *compiled, job.config, sim);
      result.plan = compiled->plan;
      result.profiler_runs = compiled->profiler_runs;
      const double cell_s = now_s() - start;
      const std::lock_guard<std::mutex> lock(mutex);
      sim_total.add(sim);
      if (compile_seconds >= 0) compile_s.push_back(compile_seconds);
      busy_s += cell_s;
      return result;
    };
    core::ExperimentEngine engine(options);

    RoundResult round;
    const Stopwatch watch;
    const std::vector<core::JobResult> results = engine.run_guarded(jobs_);
    watch.stop(round);
    collect(results, round);

    // Heap the compiled cells still hold once the grid is done: what the
    // engine's per-run cache keeps alive until its last cell finishes.
    const core::CompileCacheStats stats = cache->stats();
    const double held = heap_mb();
    cache.reset();
    const double retained_mb = held - heap_mb();

    std::vector<const fs::SimulationResult*> sims;
    std::uint64_t attempts = 0;
    for (const core::JobResult& r : results) {
      attempts += r.attempts;
      if (!r.failed) sims.push_back(&r.result.sim);
    }
    LayerValues& l = round.layers;
    fill_sim_layers(l, sim_total, sims);
    fill_compile_layers(l, compile_s);
    l["layout.retained_mb"] = retained_mb;
    l["engine.cells"] = static_cast<double>(jobs_.size());
    l["engine.attempts"] = static_cast<double>(attempts);
    l["engine.failed"] = static_cast<double>(round.failed);
    l["engine.busy_s"] = busy_s;
    l["engine.utilization"] =
        busy_s / (round.wall_s * static_cast<double>(engine.workers()));
    l["engine.cache.hits"] = static_cast<double>(stats.hits);
    l["engine.cache.misses"] = static_cast<double>(stats.misses);
    return round;
  }

  std::uint64_t seed_;
  bool write_family_;
  std::string description_;
  std::vector<flo::workloads::Workload> programs_;
  std::vector<core::ExperimentJob> jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_grid(std::uint64_t seed) {
  return std::make_unique<GridWorkload>(seed, /*write_family=*/false);
}

std::unique_ptr<Workload> make_write_mix(std::uint64_t seed) {
  return std::make_unique<GridWorkload>(seed, /*write_family=*/true);
}

}  // namespace perfbench

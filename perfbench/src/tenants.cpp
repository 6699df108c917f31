// tenant_qos: three tenants share the I/O and storage caches through
// core::run_multi_tenant on the event core, under three QoS variants. The
// traced round rebuilds each multi-tenant run from the public pieces
// run_multi_tenant composes, so solo and shared simulations are timed apart.
// run_rebuilt is a frozen copy of run_multi_tenant: the tenant.* counts and
// times describe the copy, so it must be re-synced whenever
// run_multi_tenant changes. The digest check catches a change in results,
// the overhead band a change in cost.
#include <algorithm>
#include <array>
#include <set>

#include "common.hpp"
#include "core/tenant.hpp"
#include "probes.hpp"
#include "storage/simulator.hpp"
#include "trace/interleaver.hpp"
#include "trace/source.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace {

namespace core = flo::core;
namespace fs = flo::storage;

/// The three tenants. The seed draws their order and the seed of the
/// library's shuffled slot schedule, not the apps: triples drawn by seed
/// differed by a fifth in simulated blocks per round even when their solo
/// costs matched, so wall_s moved with the seed as well as with the host.
/// All three have short solo runs, so a run holds enough rounds for a
/// steady fastest one.
constexpr std::array<const char*, 3> kTenants = {"cc-ver-1", "s3asim", "qio"};

enum class Variant { kUnpartitioned, kEqualPriority, kDynamic };
constexpr std::array<Variant, 3> kVariants = {
    Variant::kUnpartitioned, Variant::kEqualPriority, Variant::kDynamic};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kUnpartitioned: return "unpartitioned-look";
    case Variant::kEqualPriority: return "equal-priority";
    case Variant::kDynamic: return "dynamic-look";
  }
  return "?";
}

fs::QosConfig qos_of(Variant v, const std::vector<std::uint32_t>& priorities) {
  fs::QosConfig qos;
  if (v == Variant::kUnpartitioned) return qos;  // disabled: LOOK, no shares
  qos.enabled = true;
  qos.shares.assign(priorities.size(), 1);
  if (v == Variant::kEqualPriority) {
    qos.scheduler = fs::SchedPolicyKind::kPriority;
    qos.priorities = priorities;
  } else {
    qos.scheduler = fs::SchedPolicyKind::kLook;
    qos.dynamic_shares = true;
  }
  return qos;
}

/// Disk priorities for the priority variant, as the tenant_qos scenario
/// sets them: the tenant the unpartitioned run slowed most ranks highest.
std::vector<std::uint32_t> rank_priorities(const std::vector<double>& slowdowns) {
  std::vector<std::size_t> order(slowdowns.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slowdowns[a] < slowdowns[b];
  });
  std::vector<std::uint32_t> prio(slowdowns.size(), 1);
  for (std::size_t r = 0; r < order.size(); ++r) {
    prio[order[r]] = static_cast<std::uint32_t>(r + 1);
  }
  return prio;
}

/// One variant's simulations, whichever path produced them.
struct VariantRun {
  std::vector<fs::SimulationResult> solo;
  fs::SimulationResult shared;
  std::vector<double> slowdowns;
};

class TenantQos final : public Workload {
 public:
  explicit TenantQos(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    SplitMix rng(seed_);
    std::vector<const char*> order(kTenants.begin(), kTenants.end());
    rng.shuffle(order);
    options_.policy = flo::trace::InterleavePolicy::kSeededRandom;
    options_.seed = rng.next();
    programs_.clear();
    for (const char* name : order) {
      programs_.push_back(flo::workloads::workload_by_name(name));
    }
  }

  std::string describe() const override {
    std::string out = "tenants";
    for (const auto& app : programs_) out += " " + app.name;
    return out + ", interleave seed " + std::to_string(options_.seed);
  }

  /// The traced round is run_rebuilt, a copy of run_multi_tenant.
  /// Band recorded from traced runs on a 4-vCPU x86 VM.
  OverheadBand overhead_band() const override {
    return {0.75, 2.0, "core::run_multi_tenant (tenants.cpp)"};
  }

  RoundResult run(bool traced) override {
    RoundResult round;
    std::vector<VariantRun> runs;
    SimTrace sim;
    std::vector<double> compile_s;
    double solo_s = 0, shared_s = 0;
    {
      const Stopwatch watch;
      std::vector<std::uint32_t> priorities(programs_.size(), 1);
      for (const Variant v : kVariants) {
        const std::vector<core::TenantJob> jobs = make_jobs(qos_of(v, priorities));
        ++round.attempted;
        try {
          runs.push_back(traced ? run_rebuilt(jobs, sim, compile_s, solo_s, shared_s)
                                : run_library(jobs));
        } catch (const std::exception& e) {
          ++round.failed;
          round.violations.push_back(std::string(variant_name(v)) +
                                     ": failed: " + e.what());
          runs.emplace_back();
        }
        if (v == Variant::kUnpartitioned &&
            runs.back().slowdowns.size() == programs_.size()) {
          priorities = rank_priorities(runs.back().slowdowns);
        }
      }
      watch.stop(round);
    }
    collect(runs, round);
    if (traced) {
      std::vector<const fs::SimulationResult*> results;
      std::set<std::uint64_t> distinct_solo;
      std::uint64_t solo_sims = 0, io_evictions = 0, storage_evictions = 0,
                    occupancy = 0;
      for (const VariantRun& run : runs) {
        for (const auto& s : run.solo) {
          results.push_back(&s);
          distinct_solo.insert(digest_result(s));
          ++solo_sims;
        }
        results.push_back(&run.shared);
        for (const fs::TenantStats& t : run.shared.tenants) {
          io_evictions += t.io_evictions;
          storage_evictions += t.storage_evictions;
          occupancy = std::max(occupancy, t.occupancy_peak);
        }
      }
      LayerValues& l = round.layers;
      fill_sim_layers(l, sim, results);
      fill_compile_layers(l, compile_s);
      l["tenant.runs"] = static_cast<double>(runs.size());
      l["tenant.solo_sims"] = static_cast<double>(solo_sims);
      l["tenant.distinct_solo"] = static_cast<double>(distinct_solo.size());
      l["tenant.solo_s"] = solo_s;
      l["tenant.shared_s"] = shared_s;
      l["tenant.io_evictions"] = static_cast<double>(io_evictions);
      l["tenant.storage_evictions"] = static_cast<double>(storage_evictions);
      l["tenant.occupancy_peak"] = static_cast<double>(occupancy);
    }
    return round;
  }

 private:
  std::vector<core::TenantJob> make_jobs(const fs::QosConfig& qos) const {
    std::vector<core::TenantJob> jobs;
    for (const auto& app : programs_) {
      core::TenantJob job;
      job.label = app.name;
      job.program = &app.program;
      job.config.sim_core = fs::SimCoreKind::kEvent;
      job.config.solver = core::SolverKind::kUnimodular;
      job.config.trace = core::TraceMode::kStreaming;
      job.config.topology.qos = qos;
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  VariantRun run_library(const std::vector<core::TenantJob>& jobs) const {
    core::MultiTenantResult result = core::run_multi_tenant(jobs, options_);
    VariantRun run;
    for (core::TenantOutcome& t : result.tenants) {
      run.solo.push_back(std::move(t.solo));
      run.slowdowns.push_back(t.slowdown);
    }
    run.shared = std::move(result.shared);
    return run;
  }

  /// run_multi_tenant rebuilt from public pieces with a timer around each
  /// compile, solo simulation and shared simulation.
  VariantRun run_rebuilt(const std::vector<core::TenantJob>& jobs, SimTrace& sim,
                         std::vector<double>& compile_s, double& solo_s,
                         double& shared_s) const {
    const core::ExperimentConfig& base = jobs[0].config;
    const fs::StorageTopology topology(base.topology);
    VariantRun run;
    std::vector<core::CompiledExperiment> compiled;
    compiled.reserve(jobs.size());
    for (const core::TenantJob& job : jobs) {
      core::ExperimentConfig cfg = job.config;
      cfg.topology = base.topology;
      cfg.threads = base.topology.compute_nodes;
      cfg.policy = base.policy;
      cfg.sim_core = base.sim_core;
      double start = now_s();
      compiled.push_back(core::compile_experiment(*job.program, cfg));
      compile_s.push_back(now_s() - start);
      start = now_s();
      run.solo.push_back(traced_simulate(*job.program, compiled.back(), cfg, sim));
      solo_s += now_s() - start;
    }

    flo::trace::TraceOptions options;
    options.emit_extents = fs::extents_enabled();
    std::vector<std::unique_ptr<flo::trace::StreamingTraceSource>> sources;
    std::vector<const fs::TraceSource*> tenant_sources;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      sources.push_back(std::make_unique<flo::trace::StreamingTraceSource>(
          *jobs[k].program, compiled[k].schedule, compiled[k].layouts,
          topology, options));
      tenant_sources.push_back(sources.back().get());
    }
    const flo::trace::InterleavedTraceSource interleaved(
        tenant_sources, options_.policy, options_.seed);
    std::vector<fs::NodeId> io_of_slot(interleaved.thread_count());
    for (std::uint32_t s = 0; s < interleaved.thread_count(); ++s) {
      const std::uint32_t k = interleaved.tenant_of_slot(s);
      const std::uint32_t j = interleaved.origin_thread_of_slot(s);
      io_of_slot[s] =
          topology.io_node_of(compiled[k].schedule.mapping().node_of(j));
    }
    fs::HierarchySimulator simulator(topology, base.policy, std::move(io_of_slot));
    simulator.set_core(base.sim_core);
    simulator.set_tenants(interleaved.tenant_map(),
                          static_cast<std::uint32_t>(jobs.size()));
    const TimedSource timed(interleaved, sim);
    const double start = now_s();
    run.shared = simulator.run(timed);
    const double elapsed = now_s() - start;
    sim.run_s += elapsed;
    ++sim.sims;
    shared_s += elapsed;

    for (std::size_t k = 0; k < jobs.size(); ++k) {
      double solo_busy = 0;
      for (const double t : run.solo[k].thread_time) solo_busy += t;
      run.slowdowns.push_back(
          core::tenant_slowdown(run.shared.tenants[k].busy_time, solo_busy));
    }
    return run;
  }

  void collect(const std::vector<VariantRun>& runs, RoundResult& round) const {
    for (std::size_t v = 0; v < runs.size(); ++v) {
      const std::string prefix = variant_name(kVariants[v]);
      const VariantRun& run = runs[v];
      for (std::size_t k = 0; k < run.solo.size(); ++k) {
        const std::string label = prefix + "/solo" + std::to_string(k);
        round.outputs.items[label] = digest_result(run.solo[k]);
        round.work += static_cast<double>(run.solo[k].accesses);
        check_bound(label, run.solo[k], round.violations);
      }
      const std::string label = prefix + "/shared";
      round.outputs.items[label] = digest_result(run.shared);
      round.work += static_cast<double>(run.shared.accesses);
      check_slices(label, run.shared, round.violations);
    }
  }

  /// Per-tenant slices of a shared run must sum to its aggregates.
  static void check_slices(const std::string& label, const fs::SimulationResult& r,
                           std::vector<std::string>& violations) {
    fs::TenantStats sum;
    for (const fs::TenantStats& t : r.tenants) {
      sum.accesses += t.accesses;
      sum.elements += t.elements;
      sum.io_lookups += t.io_lookups;
      sum.io_hits += t.io_hits;
      sum.storage_lookups += t.storage_lookups;
      sum.storage_hits += t.storage_hits;
      sum.disk_reads += t.disk_reads;
      sum.bytes_filled += t.bytes_filled;
    }
    const bool ok = !r.tenants.empty() && sum.accesses == r.accesses &&
                    sum.elements == r.elements &&
                    sum.io_lookups == r.io.lookups && sum.io_hits == r.io.hits &&
                    sum.storage_lookups == r.storage.lookups &&
                    sum.storage_hits == r.storage.hits &&
                    sum.disk_reads == r.disk_reads &&
                    sum.bytes_filled == r.io.bytes_filled + r.storage.bytes_filled;
    if (!ok) {
      violations.push_back(label +
                           ": per-tenant slices do not sum to the aggregates");
    }
  }

  std::uint64_t seed_;
  core::MultiTenantOptions options_;
  std::vector<flo::workloads::Workload> programs_;
};

}  // namespace

std::unique_ptr<Workload> make_tenant_qos(std::uint64_t seed) {
  return std::make_unique<TenantQos>(seed);
}

}  // namespace perfbench

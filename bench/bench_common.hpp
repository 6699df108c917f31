// Shared helpers for the bench binaries: submit suite-wide experiment
// grids to the ExperimentEngine and print paper-style comparison tables.
//
// Every figure is some grid of (application x scheme x policy x topology)
// cells; the helpers here expand those grids into one engine submission so
// cells sharing a compilation compute it once and independent cells run on
// the worker pool.
//
// Environment knobs (all optional; see README "Environment variables"):
//   FLO_WORKERS      worker threads (default: hardware concurrency)
//   FLO_FAULTS       fault-injection spec applied to every topology the
//                    bench simulates (storage/fault_model.hpp syntax);
//                    unset/empty leaves output byte-identical to a
//                    fault-free build
//   FLO_QOS          tenant QoS spec applied to every topology the bench
//                    simulates (storage/qos.hpp syntax: shares=…, prio=…,
//                    dynamic=…, epoch=…, sched=…, window=…); unset/empty
//                    leaves output byte-identical to a QoS-free build
//   FLO_SCHED        disk scheduling policy (look | fcfs | priority);
//                    overrides any sched= key in FLO_QOS
//   FLO_JOURNAL      checkpoint journal path — completed cells stream to
//                    it and a rerun resumes, skipping journaled cells
//   FLO_JOB_TIMEOUT  wall-clock seconds per cell attempt (0 = unlimited)
//   FLO_JOB_RETRIES  extra attempts for cells failing with TransientError
#pragma once

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "storage/fault_model.hpp"
#include "storage/qos.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace flo::bench {

/// A positive integer knob (FLO_WORKERS, FLO_JOB_RETRIES): digits only
/// (util::parse_decimal_u64: no sign or whitespace), in range, above 0.
/// A typo'd knob must not silently fall back to a default.
inline std::uint64_t positive_integer(const std::string& value) {
  const std::optional<std::uint64_t> v = util::parse_decimal_u64(value);
  if (!v) {
    // Digits only, yet no value: it does not fit in 64 bits.
    const bool digits = value.find_first_not_of("0123456789") == value.npos;
    throw std::invalid_argument(
        (digits ? "integer out of range '" : "malformed integer '") + value +
        "'");
  }
  if (*v == 0) {
    throw std::invalid_argument("must be positive, got '" + value + "'");
  }
  return *v;
}

/// A positive number of seconds (FLO_JOB_TIMEOUT), fractions allowed.
inline double positive_seconds(const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("malformed number '" + value + "'");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("number out of range '" + value + "'");
  }
  if (!(v > 0)) {
    throw std::invalid_argument("must be positive, got '" + value + "'");
  }
  return v;
}

/// Engine options assembled from the environment (workers, checkpoint
/// journal, per-cell timeout/retry budgets). A malformed knob throws
/// util::KnobError; flo_bench checks them all at startup.
inline core::EngineOptions engine_options_from_env() {
  core::EngineOptions options;
  options.workers =  // 0: the engine default, hardware concurrency
      util::read_knob("FLO_WORKERS", positive_integer).value_or(0);
  options.share_compilations = true;
  options.journal_path =
      util::read_knob("FLO_JOURNAL", [](const std::string& path) {
        return path;
      }).value_or("");
  options.job_timeout =
      util::read_knob("FLO_JOB_TIMEOUT", positive_seconds).value_or(0);
  options.max_retries = static_cast<std::uint32_t>(
      util::read_knob("FLO_JOB_RETRIES", positive_integer).value_or(0));
  return options;
}

/// The process-wide engine every bench binary submits to.
inline core::ExperimentEngine& engine() {
  static core::ExperimentEngine instance(engine_options_from_env());
  return instance;
}

/// Applies the FLO_FAULTS spec (if any) to a config's topology. Benches
/// call this on every config they build so an operator can study any
/// figure under injected faults; without the variable this is an exact
/// no-op, preserving byte-identical baseline output.
inline core::ExperimentConfig with_env_faults(core::ExperimentConfig config) {
  config.topology.fault =
      storage::fault_config_from_env(config.topology.fault);
  if (config.compile_topology) {
    config.compile_topology->fault = config.topology.fault;
  }
  return config;
}

/// Applies the FLO_QOS / FLO_SCHED knobs (if any) to a config's topology,
/// mirroring with_env_faults: every bench config passes through here, so
/// an operator can study any figure under cache partitioning or an
/// alternate disk scheduler; without the variables this is an exact no-op.
inline core::ExperimentConfig with_env_qos(core::ExperimentConfig config) {
  config.topology.qos = storage::qos_config_from_env(config.topology.qos);
  if (config.compile_topology) {
    config.compile_topology->qos = config.topology.qos;
  }
  return config;
}

/// Runs one configuration over every application; results in suite order.
inline std::vector<core::ExperimentResult> run_suite(
    const core::ExperimentConfig& config,
    const std::vector<workloads::Workload>& suite) {
  const core::ExperimentConfig faulted = with_env_qos(with_env_faults(config));
  std::vector<core::ExperimentJob> jobs;
  jobs.reserve(suite.size());
  for (const auto& app : suite) {
    jobs.push_back({app.name, &app.program, faulted});
  }
  return engine().run(jobs);
}

/// One column of a figure: a (baseline, optimized) config pair. The
/// baseline differs per variant when the figure sweeps a topology knob
/// (cache size, block size, policy) and the bars normalize within it.
struct VariantSpec {
  std::string label;
  core::ExperimentConfig baseline;
  core::ExperimentConfig optimized;
};

/// Runs every variant's pair over the whole suite as one engine
/// submission (compilations dedup across variants — e.g. one default
/// compilation serves every column's baseline) and returns
/// rows[variant][app].
inline std::vector<std::vector<core::AppMeasurement>> run_variant_grid(
    const std::vector<VariantSpec>& variants,
    const std::vector<workloads::Workload>& suite) {
  std::vector<core::ExperimentJob> jobs;
  jobs.reserve(variants.size() * suite.size() * 2);
  for (const auto& variant : variants) {
    const core::ExperimentConfig baseline =
        with_env_qos(with_env_faults(variant.baseline));
    const core::ExperimentConfig optimized =
        with_env_qos(with_env_faults(variant.optimized));
    for (const auto& app : suite) {
      jobs.push_back({app.name + "/" + variant.label + "/base", &app.program,
                      baseline});
      jobs.push_back({app.name + "/" + variant.label + "/opt", &app.program,
                      optimized});
    }
  }
  const std::vector<core::ExperimentResult> results = engine().run(jobs);

  std::vector<std::vector<core::AppMeasurement>> rows(variants.size());
  std::size_t i = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    rows[v].reserve(suite.size());
    for (const auto& app : suite) {
      core::AppMeasurement m;
      m.name = app.name;
      m.baseline = results[i++].sim;
      m.optimized = results[i++].sim;
      rows[v].push_back(std::move(m));
    }
  }
  return rows;
}

/// Runs every application under `baseline` and `optimized` configs (only
/// the scheme usually differs) and returns the per-app measurement pairs.
inline std::vector<core::AppMeasurement> run_suite_pair(
    const core::ExperimentConfig& baseline,
    const core::ExperimentConfig& optimized,
    const std::vector<workloads::Workload>& suite) {
  return run_variant_grid({{"pair", baseline, optimized}}, suite)[0];
}

}  // namespace flo::bench

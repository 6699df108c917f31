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
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "storage/fault_model.hpp"
#include "storage/qos.hpp"
#include "storage/sim_core.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace flo::bench {

/// Prints a bench/bench_common.hpp-anchored diagnostic for a bad
/// environment knob and exits 2 (the configuration-error code, distinct
/// from a failed run). A typo'd knob silently falling back to a default
/// would quietly benchmark the wrong thing.
[[noreturn]] inline void die_env(const char* var, const char* what,
                                 const char* value) {
  std::fprintf(stderr,
               "bench_common.hpp: %s: %s '%s' (fix or unset the variable)\n",
               var, what, value);
  std::exit(2);
}

/// Strict positive-integer env parse: the whole value must be a base-10
/// integer > 0 (util::parse_decimal_u64: digits only, no sign or
/// whitespace). Malformed or out-of-range values are fatal, not defaulted.
inline std::size_t env_positive_u64(const char* var, const char* value) {
  const std::string_view text(value);
  const std::optional<std::uint64_t> v = util::parse_decimal_u64(text);
  if (!v) {
    // Digits only, yet no value: it does not fit in 64 bits.
    const bool digits =
        !text.empty() && text.find_first_not_of("0123456789") == text.npos;
    die_env(var, digits ? "integer out of range" : "malformed integer",
            value);
  }
  if (*v == 0) die_env(var, "must be positive, got", value);
  return static_cast<std::size_t>(*v);
}

/// Strict positive-number env parse (seconds, fractions allowed).
inline double env_positive_double(const char* var, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') die_env(var, "malformed number", value);
  if (errno == ERANGE) die_env(var, "number out of range", value);
  if (!(v > 0)) die_env(var, "must be positive, got", value);
  return v;
}

inline std::size_t workers_from_env() {
  if (const char* env = std::getenv("FLO_WORKERS")) {
    if (*env != '\0') return env_positive_u64("FLO_WORKERS", env);
  }
  return 0;  // engine default: hardware concurrency
}

/// Validates FLO_SIM up front so a typo is a clean two-line diagnostic
/// instead of an uncaught std::invalid_argument mid-grid.
inline void validate_sim_core_env() {
  if (const char* env = std::getenv("FLO_SIM")) {
    if (*env != '\0' && !storage::parse_sim_core(env)) {
      die_env("FLO_SIM", "unknown simulator core (want clock or event)", env);
    }
  }
}

/// Same up-front validation for FLO_SOLVER (the Step I backend).
inline void validate_solver_env() {
  if (const char* env = std::getenv("FLO_SOLVER")) {
    if (*env != '\0' && !core::parse_solver(env)) {
      die_env("FLO_SOLVER",
              "unknown layout solver (want unimodular or constraint)", env);
    }
  }
}

/// Same up-front validation for the tenant QoS knobs: FLO_SCHED must name
/// a known disk scheduler and FLO_QOS must parse as a storage/qos.hpp
/// spec. A typo'd spec would otherwise surface as an uncaught
/// std::invalid_argument mid-grid, or — worse — benchmark without the
/// partitioning the operator thought they asked for.
inline void validate_qos_env() {
  if (const char* env = std::getenv("FLO_SCHED")) {
    if (*env != '\0' && !storage::parse_sched_policy(env)) {
      die_env("FLO_SCHED",
              "unknown disk scheduler (want look, fcfs or priority)", env);
    }
  }
  if (const char* env = std::getenv("FLO_QOS")) {
    if (*env != '\0') {
      try {
        (void)storage::parse_qos_spec(env);
      } catch (const std::exception& err) {
        die_env("FLO_QOS", err.what(), env);
      }
    }
  }
}

/// Same up-front validation for FLO_FAULTS: a malformed spec, or a value
/// FaultConfig::validate rejects (a NaN rate or backoff among them), exits
/// 2 instead of ending the run with an uncaught exception or running
/// silently without the faults the operator asked for.
inline void validate_faults_env() {
  if (const char* env = std::getenv("FLO_FAULTS")) {
    if (*env != '\0') {
      try {
        (void)storage::parse_fault_spec(env);
      } catch (const std::exception& err) {
        die_env("FLO_FAULTS", err.what(), env);
      }
    }
  }
}

/// Engine options assembled from the environment (workers, checkpoint
/// journal, per-cell timeout/retry budgets). Malformed knobs exit 2.
inline core::EngineOptions engine_options_from_env() {
  validate_sim_core_env();
  validate_solver_env();
  validate_qos_env();
  validate_faults_env();
  core::EngineOptions options;
  options.workers = workers_from_env();
  options.share_compilations = true;
  if (const char* env = std::getenv("FLO_JOURNAL")) {
    options.journal_path = env;
  }
  if (const char* env = std::getenv("FLO_JOB_TIMEOUT")) {
    if (*env != '\0') {
      options.job_timeout = env_positive_double("FLO_JOB_TIMEOUT", env);
    }
  }
  if (const char* env = std::getenv("FLO_JOB_RETRIES")) {
    if (*env != '\0') {
      options.max_retries =
          static_cast<std::uint32_t>(env_positive_u64("FLO_JOB_RETRIES", env));
    }
  }
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

#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/compile_cache.hpp"
#include "ir/printer.hpp"
#include "obs/span.hpp"
#include "storage/policy.hpp"
#include "util/atomic_file.hpp"

namespace flo::core {

namespace {

/// Journal identity of a cell: the label, the program's CONTENT
/// fingerprint, and every config field that can influence its result.
/// Unlike compile_key it must be stable across processes, so the program
/// is identified by its printed IR (hashed by the caller, cached per
/// instance), never by pointer. Keying on content and not just the label
/// is what makes resume safe: editing a program between runs changes its
/// cells' keys, so a stale journal can no longer masquerade as completed
/// work under an unchanged label.
std::string journal_key(const ExperimentJob& job,
                        std::uint64_t program_fingerprint) {
  std::string bytes;
  bytes.reserve(256 + job.label.size());
  bytes.append(job.label);
  bytes.push_back('\0');
  append_value(bytes, program_fingerprint);
  append_value(bytes, job.config.threads);
  append_value(bytes, job.config.mapping);
  append_value(bytes, job.config.policy);
  append_value(bytes, job.config.scheme);
  append_value(bytes, job.config.unweighted_step1);
  append_value(bytes, job.config.solver);
  append_value(bytes, job.config.trace);
  // The cores agree on integer stats only inside the equivalence envelope;
  // exec times always differ, so journaled cells are per-core.
  append_value(bytes, job.config.sim_core);
  append_topology_key(bytes, job.config.topology);
  append_value(bytes, job.config.compile_topology.has_value());
  if (job.config.compile_topology) {
    append_topology_key(bytes, *job.config.compile_topology);
  }
  return hex16(fnv1a(bytes));
}

// --- checkpoint journal ----------------------------------------------------
// Text file, one completed cell per line after a version-tag header:
//   flo-journal-v2 <grid-hash>
//   <key> <profiler_runs> sim-v5 <SimulationResult wire fields>
// where <key> is the 16-hex-digit journal_key and <grid-hash> fingerprints
// the sorted key set of the grid that wrote the file. Every update rewrites
// the whole file through atomic_write_file (tmp + fsync + rename), so a
// kill at any instant leaves either the previous or the new journal —
// never a truncated one.
//
// Resume safety: a journal whose grid hash differs from the current grid's
// is accepted only when every journaled key still names a current cell
// (the grid grew — the classic extend-the-sweep resume). Any journaled key
// with no current counterpart means the journal belongs to a different
// experiment (or to edited programs: keys fingerprint program content), and
// the load REFUSES with a diagnostic instead of silently resuming from
// stale results. v1 journals predate content fingerprints and are refused
// outright for the same reason. Files that are not journals at all (no
// flo-journal- header) and unparseable cell lines are still treated as
// absent cells — the run recomputes them.

constexpr const char* kJournalTag = "flo-journal-v2";
constexpr const char* kJournalPrefix = "flo-journal-";

class Journal {
 public:
  Journal(std::string path, std::string grid_hash,
          const std::unordered_set<std::string>& current_keys)
      : path_(std::move(path)), grid_hash_(std::move(grid_hash)) {
    if (path_.empty()) return;
    std::ifstream in(path_);
    if (!in) return;
    std::string line;
    if (!std::getline(in, line)) return;
    std::istringstream header(line);
    std::string tag;
    std::string stored_hash;
    header >> tag >> stored_hash;
    if (tag.rfind(kJournalPrefix, 0) != 0) return;  // not a journal: absent
    if (tag != kJournalTag) {
      throw std::runtime_error(
          "checkpoint journal \"" + path_ + "\": unsupported format \"" + tag +
          "\" (expected " + kJournalTag +
          "); it predates program-content fingerprinting, so resuming from "
          "it could restore results of a different program — delete the "
          "file or point the journal path elsewhere to start fresh");
    }
    while (std::getline(in, line)) {
      std::istringstream is(line);
      std::string key;
      std::uint64_t profiler_runs = 0;
      if (!(is >> key >> profiler_runs)) continue;
      std::string rest;
      std::getline(is, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      const auto sim = storage::from_wire(rest);
      if (!sim) continue;
      cells_[key] = {profiler_runs, *sim};
      lines_[key] = line;
    }
    if (stored_hash == grid_hash_) return;
    // Different grid: resumable only if every journaled cell still exists
    // in the current grid (pure extension). A foreign key means a stale or
    // mismatched journal — refuse loudly rather than resume wrongly.
    for (const auto& [key, cell] : cells_) {
      if (current_keys.count(key) != 0) continue;
      throw std::runtime_error(
          "checkpoint journal \"" + path_ + "\": grid mismatch (journal " +
          (stored_hash.empty() ? std::string("<no hash>") : stored_hash) +
          ", current grid " + grid_hash_ + "); journaled cell " + key +
          " does not correspond to any cell of this grid — the journal "
          "belongs to a different experiment or to since-edited programs. "
          "Delete the file or point the journal path elsewhere to start "
          "fresh");
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Restores a journaled cell into `out`; false if the key is absent.
  bool restore(const std::string& key, JobResult& out) const {
    const auto it = cells_.find(key);
    if (it == cells_.end()) return false;
    out.result.sim = it->second.second;
    out.result.profiler_runs = static_cast<std::size_t>(it->second.first);
    // ExperimentResult::plan is not journaled (transform plans do not
    // round-trip through text); resumed cells carry an empty plan.
    return true;
  }

  /// Records a completed cell and atomically rewrites the journal file.
  /// Throws std::system_error if the write fails — a cell that cannot be
  /// checkpointed is surfaced, not silently lost.
  void record(const std::string& key, const ExperimentResult& result) {
    if (path_.empty()) return;
    std::ostringstream line;
    line << key << ' ' << result.profiler_runs << ' '
         << storage::to_wire(result.sim);
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_[key] = line.str();
    std::string contents(kJournalTag);
    contents.push_back(' ');
    contents.append(grid_hash_);
    contents.push_back('\n');
    // std::map iteration keeps the file content independent of worker
    // scheduling (byte-identical journals across runs).
    for (const auto& [k, l] : std::map<std::string, std::string>(
             lines_.begin(), lines_.end())) {
      contents.append(l);
      contents.push_back('\n');
    }
    util::atomic_write_file(path_, contents);
  }

 private:
  std::string path_;
  std::string grid_hash_;
  std::unordered_map<std::string, std::string> lines_;
  std::unordered_map<std::string,
                     std::pair<std::uint64_t, storage::SimulationResult>>
      cells_;
  std::mutex mutex_;
};

// --- guarded execution -----------------------------------------------------

/// The actual work of one attempt: the test-hook runner if present,
/// otherwise compile (shared through the run's cache when there is one) +
/// simulate. `compile_key` is the job's content fingerprint (empty when
/// sharing is off — there is no cache then).
ExperimentResult execute(const ExperimentJob& job, const EngineOptions& options,
                         const std::shared_ptr<CompileCache>& cache,
                         const std::string& compile_key) {
  if (options.runner) return options.runner(job);
  if (job.program == nullptr) {
    throw std::invalid_argument("ExperimentEngine: null program in \"" +
                                job.label + "\"");
  }
  const CompiledPtr compiled =
      cache ? cache->get_or_compile(
                  compile_key,
                  [&] {
                    CompiledExperiment out =
                        compile_experiment(*job.program, job.config);
                    if (obs::enabled()) {
                      // One more compile held; the release of its group
                      // takes it back (run_guarded).
                      auto& reg = obs::registry();
                      reg.histogram("engine.compiles_live_at_insert")
                          .observe(static_cast<double>(
                              reg.gauge("engine.compiles_live").add(1)));
                    }
                    return out;
                  })
            : std::make_shared<const CompiledExperiment>(
                  compile_experiment(*job.program, job.config));
  ExperimentResult result;
  result.sim = simulate_experiment(*job.program, *compiled, job.config);
  result.plan = compiled->plan;
  result.profiler_runs = compiled->profiler_runs;
  return result;
}

struct AttemptOutcome {
  ExperimentResult result;
  std::exception_ptr error;
  bool timed_out = false;
};

/// One attempt under a wall-clock budget: the work runs on its own thread
/// while the worker waits with a deadline. On timeout the thread is
/// abandoned (detached); it owns copies of the job and the shared cache
/// pointer, so nothing it touches can dangle when the grid moves on
/// (except the unowned ir::Program — see EngineOptions::job_timeout).
AttemptOutcome run_attempt_with_timeout(
    const ExperimentJob& job, const EngineOptions& options,
    const std::shared_ptr<CompileCache>& cache,
    const std::string& compile_key) {
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ExperimentResult result;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  std::thread attempt([state, job, options, cache, compile_key] {
    ExperimentResult result;
    std::exception_ptr error;
    try {
      result = execute(job, options, cache, compile_key);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      state->result = std::move(result);
      state->error = error;
      state->done = true;
    }
    state->cv.notify_all();
  });

  AttemptOutcome outcome;
  std::unique_lock<std::mutex> lock(state->mutex);
  const bool finished =
      state->cv.wait_for(lock, std::chrono::duration<double>(options.job_timeout),
                         [&] { return state->done; });
  if (!finished) {
    lock.unlock();
    attempt.detach();
    outcome.timed_out = true;
    return outcome;
  }
  outcome.result = std::move(state->result);
  outcome.error = state->error;
  lock.unlock();
  attempt.join();
  return outcome;
}

AttemptOutcome run_attempt(const ExperimentJob& job,
                           const EngineOptions& options,
                           const std::shared_ptr<CompileCache>& cache,
                           const std::string& compile_key) {
  if (options.job_timeout > 0) {
    return run_attempt_with_timeout(job, options, cache, compile_key);
  }
  AttemptOutcome outcome;
  try {
    outcome.result = execute(job, options, cache, compile_key);
  } catch (...) {
    outcome.error = std::current_exception();
  }
  return outcome;
}

bool is_transient(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const TransientError&) {
    return true;
  } catch (...) {
    return false;
  }
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : options_(std::move(options)),
      workers_(options_.workers != 0
                   ? options_.workers
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency())) {}

std::vector<JobResult> ExperimentEngine::run_guarded(
    const std::vector<ExperimentJob>& jobs) {
  std::vector<JobResult> results(jobs.size());
  if (jobs.empty()) return results;

  // Journal keys — and the grid hash binding a journal file to this job
  // set — plus the compile fingerprints are computed up front. The
  // program-content fingerprint is cached per distinct program instance
  // (grids share a handful of programs across many cells).
  std::unordered_map<const ir::Program*, std::uint64_t> fingerprints;
  const auto fingerprint_of = [&](const ir::Program* p) {
    const auto [it, fresh] = fingerprints.try_emplace(p, 0);
    if (fresh && p != nullptr) it->second = program_fingerprint(*p);
    return it->second;
  };
  // Cells that share a compile form a group, numbered by the first
  // appearance of its key. Workers claim order[k]: a group's cells run back
  // to back (groups in that numbering, cells within a group by index), so
  // its compile is needed only while they run. pending[g] counts group g's
  // unfinished cells, and the last one to end drops the compile from the
  // run's cache. The run then holds at most workers + 1 compiles: the
  // running cells' groups and the one being handed out. Without sharing
  // there is no cache, and cells go in submission order.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::string> compile_keys;
  std::vector<std::size_t> group_of;
  std::unique_ptr<std::atomic<std::size_t>[]> pending;
  // Heap-shared so attempt threads abandoned by a timeout can keep using
  // it safely after the grid (and this frame) are gone.
  std::shared_ptr<CompileCache> cache;
  if (options_.share_compilations) {
    compile_keys.resize(jobs.size());
    group_of.resize(jobs.size());
    std::unordered_map<std::string, std::size_t> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      compile_keys[i] = compile_fingerprint(fingerprint_of(jobs[i].program),
                                            jobs[i].config);
      group_of[i] = groups.try_emplace(compile_keys[i], groups.size())
                        .first->second;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return group_of[a] < group_of[b];
                     });
    pending = std::make_unique<std::atomic<std::size_t>[]>(groups.size());
    for (const std::size_t g : group_of) ++pending[g];
    cache = std::make_shared<CompileCache>();
  }
  std::vector<std::string> keys;
  std::string grid_hash;
  std::unordered_set<std::string> key_set;
  if (!options_.journal_path.empty()) {
    keys.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      keys[i] = journal_key(jobs[i], fingerprint_of(jobs[i].program));
      key_set.insert(keys[i]);
    }
    std::vector<std::string> sorted(key_set.begin(), key_set.end());
    std::sort(sorted.begin(), sorted.end());
    std::string bytes;
    bytes.reserve(sorted.size() * 17);
    for (const auto& k : sorted) {
      bytes.append(k);
      bytes.push_back('\n');
    }
    grid_hash = hex16(fnv1a(bytes));
  }
  Journal journal(options_.journal_path, grid_hash, key_set);

  // Called once per cell, whichever way it ends. An entry still in flight
  // (an attempt abandoned by job_timeout is computing it) stays; that
  // attempt holds its own CompiledPtr until it ends.
  const auto release = [&](std::size_t i) {
    if (!cache || --pending[group_of[i]] != 0) return;
    if (cache->forget(compile_keys[i]) && obs::enabled()) {
      obs::registry().gauge("engine.compiles_live").add(-1);
    }
  };

  std::atomic<std::size_t> next{0};
  const bool tracing = obs::enabled();
  const obs::ScopedSpan run_span(
      "engine.run", "engine",
      tracing ? obs::SpanArgs{{"cells", std::to_string(jobs.size())}}
              : obs::SpanArgs{});
  const auto worker = [&] {
    double busy_seconds = 0;
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= jobs.size()) break;
      if (tracing) {
        // Indicative only (last-writer-wins): cells not yet claimed.
        obs::registry().gauge("engine.queue_depth").set(
            static_cast<std::int64_t>(jobs.size() - k - 1));
      }
      const std::size_t i = order[k];
      const ExperimentJob& job = jobs[i];
      JobResult& out = results[i];
      const std::string key = journal.enabled() ? keys[i] : std::string();
      if (journal.enabled() && journal.restore(key, out)) {
        out.from_journal = true;
        if (tracing) {
          obs::registry().counter("engine.cells_total").add(1);
          obs::registry().counter("engine.journal_hits").add(1);
        }
        release(i);
        continue;
      }
      const obs::ScopedSpan cell_span(
          "engine.cell", "engine",
          tracing ? obs::SpanArgs{{"label", job.label}} : obs::SpanArgs{});
      const std::string compile_key =
          options_.share_compilations ? compile_keys[i] : std::string();
      for (std::uint32_t attempt = 0;; ++attempt) {
        ++out.attempts;
        AttemptOutcome outcome =
            run_attempt(job, options_, cache, compile_key);
        if (outcome.timed_out) {
          out.failed = true;
          std::ostringstream reason;
          reason << "wall-clock timeout after " << options_.job_timeout
                 << "s (attempt " << out.attempts << ")";
          out.reason = reason.str();
          break;
        }
        if (!outcome.error) {
          out.result = std::move(outcome.result);
          out.failed = false;
          out.error = nullptr;
          out.reason.clear();
          if (journal.enabled()) {
            try {
              journal.record(key, out.result);
            } catch (const std::exception& e) {
              out.failed = true;
              out.reason = std::string("journal write failed: ") + e.what();
              out.error = std::current_exception();
            }
          }
          break;
        }
        out.error = outcome.error;
        out.reason = describe(outcome.error);
        if (!is_transient(outcome.error) ||
            attempt >= options_.max_retries) {
          out.failed = true;
          break;
        }
        // Transient: loop for another attempt (bounded by max_retries).
      }
      release(i);
      if (tracing) {
        auto& reg = obs::registry();
        reg.counter("engine.cells_total").add(1);
        if (out.failed) reg.counter("engine.cells_failed").add(1);
        if (out.attempts > 1) {
          reg.counter("engine.cell_retries").add(out.attempts - 1);
        }
        const double cell_seconds = cell_span.elapsed_seconds();
        reg.histogram("engine.cell_seconds").observe(cell_seconds);
        busy_seconds += cell_seconds;
      }
    }
    if (tracing) {
      // Worker utilization = worker_busy_us / (workers * run span dur).
      obs::registry().counter("engine.worker_busy_us").add(
          static_cast<std::uint64_t>(busy_seconds * 1e6));
    }
  };

  const std::size_t pool = std::min(workers_, jobs.size());
  if (tracing) {
    obs::registry().gauge("engine.workers").set(
        static_cast<std::int64_t>(pool));
  }
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t w = 0; w < pool; ++w) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  return results;
}

std::vector<ExperimentResult> ExperimentEngine::run(
    const std::vector<ExperimentJob>& jobs) {
  std::vector<JobResult> guarded = run_guarded(jobs);
  // Deterministic error reporting: the lowest-index failure wins,
  // regardless of which worker hit it first. The concrete exception type
  // is preserved for failures that threw; timeouts surface as
  // std::runtime_error.
  for (const JobResult& r : guarded) {
    if (!r.failed) continue;
    if (r.error) std::rethrow_exception(r.error);
    throw std::runtime_error("ExperimentEngine: " + r.reason);
  }
  std::vector<ExperimentResult> results;
  results.reserve(guarded.size());
  for (JobResult& r : guarded) results.push_back(std::move(r.result));
  return results;
}

std::vector<ExperimentJob> ExperimentGrid::expand() const {
  const std::vector<Scheme> scheme_axis =
      schemes.empty() ? std::vector<Scheme>{base.scheme} : schemes;
  const std::vector<storage::PolicyKind> policy_axis =
      policies.empty() ? std::vector<storage::PolicyKind>{base.policy}
                       : policies;
  const std::vector<parallel::MappingKind> mapping_axis =
      mappings.empty() ? std::vector<parallel::MappingKind>{base.mapping}
                       : mappings;
  const std::vector<storage::TopologyConfig> topology_axis =
      topologies.empty() ? std::vector<storage::TopologyConfig>{base.topology}
                         : topologies;

  std::vector<ExperimentJob> jobs;
  jobs.reserve(apps.size() * topology_axis.size() * mapping_axis.size() *
               policy_axis.size() * scheme_axis.size());
  for (const auto& [app_label, program] : apps) {
    for (const auto& topology : topology_axis) {
      for (const auto mapping : mapping_axis) {
        for (const auto policy : policy_axis) {
          for (const auto scheme : scheme_axis) {
            ExperimentJob job;
            job.config = base;
            job.config.topology = topology;
            job.config.threads = topology.compute_nodes;
            job.config.mapping = mapping;
            job.config.policy = policy;
            job.config.scheme = scheme;
            job.program = program;
            std::ostringstream label;
            label << app_label << '/' << scheme_name(scheme);
            if (policy_axis.size() > 1) {
              label << '/' << storage::policy_name(policy);
            }
            if (mapping_axis.size() > 1) {
              label << '/' << parallel::mapping_name(mapping);
            }
            job.label = label.str();
            jobs.push_back(std::move(job));
          }
        }
      }
    }
  }
  return jobs;
}

}  // namespace flo::core

// flo_perfbench: runs one benchmark workload from a seed and prints one
// JSON line with its end-to-end metrics, its per-layer metrics (traced
// runs), its output digests and every failed check. perfbench/run.py
// builds this binary, scrubs the environment, compares the digests with
// the pinned ones and prints the final result line.
//
//   flo_perfbench --workload <paper_grid|write_mix|tenant_qos|serve_mix>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures untraced rounds for --seconds. --trace 1 alternates
// untraced and traced rounds for --seconds, requires both to produce the
// same outputs, and reports the fastest traced round's wall over the fastest
// untraced round's as the tracing overhead, which must stay within the
// workload's recorded band.

#include <sched.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flo_perfbench: %s\nusage: flo_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(std::string(flag) + ": not a non-negative integer: '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64("--seconds", value));
      have_seconds = o.seconds > 0;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64("--trace", value);
      if (t > 1) usage("--trace must be 0 or 1");
      o.traced = t == 1;
      have_trace = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, a positive --seconds and --trace are required");
  }
  return o;
}

/// The library reads these knobs (FLO_SIM, FLO_EXTENTS, FLO_SOLVER, FLO_QOS,
/// FLO_SCHED, FLO_FAULTS, FLO_METRICS, and the flo_bench programs FLO_WORKERS,
/// FLO_JOURNAL, FLO_JOB_TIMEOUT, FLO_JOB_RETRIES). Every configuration the
/// benchmark measures is set explicitly or is the library default with the
/// variables unset, so any FLO_* variable is refused rather than obeyed.
void refuse_flo_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FLO_", 4) == 0) {
      const std::string entry = *e;
      const std::string name = entry.substr(0, entry.find('='));
      std::fprintf(stderr,
                   "flo_perfbench: %s is set; the benchmark pins every FLO_* "
                   "knob, so unset it (run.py does)\n",
                   name.c_str());
      std::exit(2);
    }
  }
}

/// Pins the calling thread to the `index`-th CPU it may run on (modulo
/// their number) and restores its affinity on destruction. Threads it
/// creates meanwhile inherit the pin. A burst of a millisecond or less
/// that always lands on one vCPU of a shared virtual machine measures that
/// vCPU's neighbours as much as the code; rotating the pin spreads the
/// samples over every vCPU instead.
class PinnedThread {
 public:
  explicit PinnedThread(std::size_t index) {
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    if (!pinned_) return;  // affinity unavailable: run unpinned
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[index % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  ~PinnedThread() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Set-ups timed for setup_s before the first round.
constexpr std::size_t kSetupSamples = 100;

/// Times `kSetupSamples` set-ups, each on the next CPU in turn (a set-up
/// lasts a millisecond or less; see PinnedThread). The serve set-up starts
/// server threads under the pin, and finish() ends them before it lifts.
std::vector<double> time_setups(Workload& w) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    const PinnedThread pin(i);
    const double t0 = now_s();
    w.setup();
    samples.push_back(now_s() - t0);
    w.finish();
  }
  return samples;
}

using Rounds = std::vector<RoundResult>;

/// Runs rounds while the next one, if it lasts as long as the last one,
/// ends within `budget_s`, and until at least 3 untraced (and, when
/// `traced`, 2 traced) rounds are done. Each round sets up its own inputs.
/// Traced runs alternate untraced and traced rounds, so the tracing
/// overhead compares rounds made under the same host conditions.
void run_rounds(Workload& w, bool traced, double budget_s, Rounds& untraced,
                Rounds& traced_rounds) {
  const double start = now_s();
  double last_s = 0;
  for (std::size_t i = 0;; ++i) {
    const bool enough =
        untraced.size() >= 3 && (!traced || traced_rounds.size() >= 2);
    if (enough && now_s() - start + last_s > budget_s) break;
    const double round_start = now_s();
    const bool trace_this = traced && i % 2 == 1;
    w.setup();
    Rounds& rounds = trace_this ? traced_rounds : untraced;
    rounds.push_back(w.run(trace_this));
    w.finish();
    rounds.back().peak_rss_mb = peak_rss_mb();
    last_s = now_s() - round_start;
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

/// Every per-layer metric with its unit, in report order. A layer that
/// does no work on a workload reports 0 there.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"layout.compiles", "count"},
      {"layout.compile_s", "s"},
      {"layout.compile_p50_ms", "ms"},
      {"layout.retained_mb", "MiB"},
      {"trace.s", "s"},
      {"trace.extents", "count"},
      {"trace.blocks", "count"},
      {"trace.blocks_per_extent", "ratio"},
      {"trace.ns_per_block", "ns"},
      {"trace.profile_s", "s"},
      {"storage.s", "s"},
      {"storage.ns_per_block", "ns"},
      {"storage.accesses", "count"},
      {"storage.io.lookups", "count"},
      {"storage.io.hit_ratio", "ratio"},
      {"storage.st.lookups", "count"},
      {"storage.st.hit_ratio", "ratio"},
      {"storage.disk_reads", "count"},
      {"storage.disk_writes", "count"},
      {"storage.writebacks", "count"},
      {"storage.demotions", "count"},
      {"storage.prefetches", "count"},
      {"storage.queue.waits", "count"},
      {"storage.queue.wait_vs", "sim_s"},
      {"bound.s", "s"},
      {"bound.passes", "passes/sim"},
      {"engine.cells", "count"},
      {"engine.attempts", "count"},
      {"engine.failed", "count"},
      {"engine.busy_s", "s"},
      {"engine.utilization", "ratio"},
      {"engine.cache.hits", "count"},
      {"engine.cache.misses", "count"},
      {"tenant.runs", "count"},
      {"tenant.solo_sims", "count"},
      {"tenant.distinct_solo", "count"},
      {"tenant.solo_s", "s"},
      {"tenant.shared_s", "s"},
      {"tenant.io_evictions", "count"},
      {"tenant.storage_evictions", "count"},
      {"tenant.occupancy_peak", "blocks"},
      {"ir.parse_ms_p50", "ms"},
      {"service.handle_hit_ms_p50", "ms"},
      {"service.handle_miss_ms_p50", "ms"},
      {"service.transport_ms_p50", "ms"},
      {"service.cache.hits", "count"},
      {"service.cache.misses", "count"},
      {"service.ok", "count"},
      {"service.shed", "count"},
      {"service.throttled", "count"},
      {"service.error", "count"},
      {"tracing.overhead", "ratio"},
  };
  return units;
}

std::vector<double> walls(const Rounds& rounds) {
  std::vector<double> out;
  for (const RoundResult& r : rounds) out.push_back(r.wall_s);
  return out;
}

/// Outputs must repeat exactly across rounds (and between the untraced
/// and the traced path); returns the first differing item, if any.
void check_repeats(const Rounds& rounds, const Outputs& reference,
                   const std::string& what, std::vector<std::string>& problems) {
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const std::string diff = rounds[i].outputs.first_difference(reference);
    if (!diff.empty()) {
      problems.push_back(what + " round " + std::to_string(i + 1) + ": '" +
                         diff + "' differs from untraced round 1");
      return;
    }
  }
}

int run(const Options& o) {
  std::unique_ptr<Workload> w;
  if (o.workload == "paper_grid") w = make_paper_grid(o.seed);
  else if (o.workload == "write_mix") w = make_write_mix(o.seed);
  else if (o.workload == "tenant_qos") w = make_tenant_qos(o.seed);
  else if (o.workload == "serve_mix") w = make_serve_mix(o.seed);
  else usage("unknown workload '" + o.workload + "'");

  std::vector<std::string> problems;
  Rounds untraced, traced;
  std::vector<double> setup_s;
  try {
    setup_s = time_setups(*w);
    run_rounds(*w, o.traced, o.seconds, untraced, traced);
    if (o.traced) w->after_traced(traced.back());
  } catch (const std::exception& e) {
    problems.push_back(std::string("run aborted: ") + e.what());
  }
  if (untraced.empty()) {
    if (problems.empty()) problems.push_back("no round completed");
  } else {
    const Outputs& reference = untraced.front().outputs;
    check_repeats(untraced, reference, "untraced", problems);
    check_repeats(traced, reference, "traced", problems);
  }

  std::uint64_t attempted = 0, failed = 0;
  double work = 0, wall_total = 0;
  std::vector<double> latencies, cpus;
  for (const Rounds* p : {&untraced, &traced}) {
    for (const RoundResult& r : *p) {
      attempted += r.attempted;
      failed += r.failed;
      for (std::size_t v = 0; v < r.violations.size() && v < 5; ++v) {
        problems.push_back(r.violations[v]);
      }
    }
  }
  for (const RoundResult& r : untraced) {
    work += r.work;
    wall_total += r.wall_s;
    cpus.push_back(r.cpu_s);
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }

  // peak_rss_mb is read when the first round ends: the footprint of a
  // process that runs the workload once. Later rounds start new engine and
  // server threads, and the allocator fragmentation they sometimes leave
  // raised write_mix's VmHWM by a fifth in two of ten 15-second runs.
  //
  // Every round does identical, deterministic work, so host interference
  // (neighbours on a shared VM slow rounds by up to half for seconds at a
  // time) only ever adds time: wall_s and cpu_s are the fastest untraced
  // round's, the least disturbed reading of what the round costs.
  const auto fastest = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  std::vector<Metric> e2e = {
      {"setup_s", "s", median(setup_s)},
      {"wall_s", "s", fastest(walls(untraced))},
      {"cpu_s", "s", fastest(cpus)},
      {"peak_rss_mb", "MiB", untraced.empty() ? peak_rss_mb()
                                              : untraced.front().peak_rss_mb},
      {"fail_ratio", "ratio",
       attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted},
  };
  if (o.workload == "serve_mix") {
    e2e.push_back({"req_per_s", "req/s", wall_total > 0 ? work / wall_total : 0});
    e2e.push_back({"req_p50_ms", "ms", quantile(latencies, 0.50)});
    // p99 is reported only when at least ten samples lie beyond it.
    if (latencies.size() >= 1000) {
      e2e.push_back({"req_p99_ms", "ms", quantile(latencies, 0.99)});
    }
    e2e.push_back({"req_samples", "count", static_cast<double>(latencies.size())});
  } else {
    e2e.push_back(
        {"sim_blocks_per_s", "blocks/s", wall_total > 0 ? work / wall_total : 0});
  }

  std::vector<Metric> layers;
  if (o.traced && !traced.empty()) {
    const double overhead = fastest(walls(traced)) / fastest(walls(untraced));
    const OverheadBand band = w->overhead_band();
    if (band.hi > 0 && (overhead < band.lo || overhead > band.hi)) {
      problems.push_back(
          "tracing.overhead " + json_number(overhead) + " is outside [" +
          json_number(band.lo) + ", " + json_number(band.hi) +
          "]: the traced path copies " + band.copied +
          " and no longer costs what the library does; re-sync the copy");
    }
    for (const auto& [name, unit] : layer_units()) {
      // Median over the traced rounds that measured the metric; the serve
      // replays run once, after the last round.
      std::vector<double> values;
      for (const RoundResult& r : traced) {
        const auto it = r.layers.find(name);
        if (it != r.layers.end()) values.push_back(it->second);
      }
      double value = median(values);
      if (std::strcmp(name, "tracing.overhead") == 0) value = overhead;
      layers.push_back({name, unit, value});
    }
  }

  std::string items = "{";
  if (!untraced.empty()) {
    for (const auto& [label, digest] : untraced.front().outputs.items) {
      if (items.size() > 1) items += ",";
      items += json_string(label) + ":" + json_string(hex16(digest));
    }
  }
  items += "}";
  std::string problem_list = "[";
  for (const std::string& p : problems) {
    if (problem_list.size() > 1) problem_list += ",";
    problem_list += json_string(p);
  }
  problem_list += "]";
  std::string round_walls = "[";
  for (const double v : walls(untraced)) {
    if (round_walls.size() > 1) round_walls += ",";
    round_walls += json_number(v);
  }
  round_walls += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"inputs\":%s,"
      "\"rounds\":%zu,\"traced_rounds\":%zu,\"round_walls\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,"
      "\"problems\":%s,\"outputs\":%s,\"end_to_end\":%s,\"per_layer\":%s}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.traced ? 1 : 0,
      json_string(untraced.empty() ? "" : w->describe()).c_str(),
      untraced.size(), traced.size(), round_walls.c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), problem_list.c_str(),
      items.c_str(), json_metrics(e2e).c_str(), json_metrics(layers).c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  perfbench::refuse_flo_environment();
  // As in flo_serve: a server answering a client that already hung up gets
  // EPIPE, not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  return perfbench::run(options);
}

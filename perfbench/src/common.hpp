// Shared plumbing of the repository benchmark: the benchmark's own seeded
// generator, host clocks and memory probes, output digests, and the
// interface every workload implements.
//
// Nothing here depends on library internals beyond the public result
// types, so a change inside src/ cannot change what the benchmark
// generates or how it measures — only what it measures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/stats.hpp"

namespace perfbench {

/// splitmix64. The benchmark draws its inputs from this rather than the
/// library's util::Rng, so the inputs for a seed never depend on the code
/// under test. The one exception is tenant_qos's slot shuffle: the benchmark
/// draws its seed, and the library's seeded interleave policy applies it.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n);
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

double now_s();        ///< steady clock, seconds
double cpu_s();        ///< process user + system CPU, seconds (all threads)
double peak_rss_mb();  ///< VmHWM of this process, MiB
double heap_mb();      ///< bytes malloc has handed out and not freed, MiB

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty vector.
double quantile(std::vector<double> values, double q);

/// FNV-1a accumulator for output digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v);  ///< bit pattern, so doubles compare bit-exactly
  void str(const std::string& s);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Digest of every public field of a SimulationResult, per-tenant slices
/// and bound bytes included. Computed here rather than through the wire
/// format, so a wire-format change does not read as a result change.
std::uint64_t digest_result(const flo::storage::SimulationResult& r);

std::string hex16(std::uint64_t v);

/// Output digests of one round, one per labelled item (cell, simulation
/// or serve key), kept in a canonical order.
struct Outputs {
  std::map<std::string, std::uint64_t> items;
  /// First label whose digest differs from `other` (or that only one side
  /// has); empty when both are identical.
  std::string first_difference(const Outputs& other) const;
};

/// Achieved >= bound on each layer whose bound makes a claim; appends a
/// message naming `label` to `violations` otherwise.
void check_bound(const std::string& label,
                 const flo::storage::SimulationResult& r,
                 std::vector<std::string>& violations);

/// Per-layer metrics of one traced round, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// What one round of a workload delivers.
struct RoundResult {
  Outputs outputs;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  ///< VmHWM of the process when the round ended
  double work = 0;  ///< simulated blocks, or ok requests on serve_mix
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<double> latencies_ms;  ///< serve_mix request round trips
  LayerValues layers;                ///< traced rounds only
};

/// Range the traced/untraced wall ratio must stay in when a traced round
/// times a benchmark copy of library code rather than the library itself.
/// A library change the copy lacks moves the ratio out of it. hi = 0
/// means no copy, so no guard.
struct OverheadBand {
  double lo = 0;
  double hi = 0;
  const char* copied = "";  ///< the library code the traced path copies
};

/// One benchmark workload. setup() builds a round's inputs (programs,
/// jobs, engine or server) and is timed as set-up; run() is the timed
/// phase; finish() runs after each round, untimed.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// One line naming what the seed drew (valid after setup()).
  virtual std::string describe() const = 0;
  virtual RoundResult run(bool traced) = 0;
  virtual void finish() {}
  /// Extra traced-only passes made once after the traced rounds (the
  /// serve workload's in-process replays); merged into the layer metrics.
  virtual void after_traced(RoundResult& /*last*/) {}
  virtual OverheadBand overhead_band() const { return {}; }
};

std::unique_ptr<Workload> make_paper_grid(std::uint64_t seed);
std::unique_ptr<Workload> make_write_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_tenant_qos(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);

/// Wall and CPU stopwatch for a round's timed phase.
class Stopwatch {
 public:
  Stopwatch() : wall0_(now_s()), cpu0_(cpu_s()) {}
  void stop(RoundResult& r) const {
    r.wall_s = now_s() - wall0_;
    r.cpu_s = cpu_s() - cpu0_;
  }

 private:
  double wall0_;
  double cpu0_;
};

}  // namespace perfbench

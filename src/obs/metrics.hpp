// obs::Registry — process-wide typed metrics (counters, gauges,
// histograms) for the compiler, the experiment engine and the hierarchy
// simulator.
//
// Design goals, in order:
//   1. zero-cost-when-disabled — every instrumentation site is gated on
//      obs::enabled() (one relaxed atomic load); a disabled build does no
//      allocation, no locking and no arithmetic;
//   2. determinism — counters are commutative sums, so a grid run under
//      any worker count produces identical counter values (the
//      determinism test in tests/obs/ holds 1-worker and N-worker runs to
//      equal snapshots), and snapshot() orders metrics by name so sink
//      output is byte-stable;
//   3. handle stability — Registry never erases a metric: reset() zeroes
//      values but keeps addresses valid, so instrumented code may cache
//      `Counter&` references for the process lifetime.
//
// Naming scheme (DESIGN.md "Observability"): dot-separated lowercase,
// `<layer>.<subject>[_<unit>]` — e.g. `compile.arrays_partitioned`,
// `engine.cells_total`, `sim.io.hits`, `engine.worker_busy_us`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace flo::obs {

/// Global metrics/tracing switch. Default off: instrumented hot paths pay
/// one relaxed atomic load and nothing else.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing sum (thread-safe, relaxed; sums are
/// order-independent, which is what makes counters deterministic across
/// engine worker counts).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (queue depth, worker count).
/// Inherently racy under concurrent writers — use only for indicative
/// values, never for anything a test compares across worker counts.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Returns the value this add produced (a +1/-1 count's new level).
  std::int64_t add(std::int64_t v) {
    return value_.fetch_add(v, std::memory_order_relaxed) + v;
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Summary histogram: count / sum / min / max of observed samples.
/// Observations are mutex-protected; intended for coarse events (one per
/// experiment cell or compile), not per-block-access paths.
class Histogram {
 public:
  void observe(double sample);
  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  void reset();

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's state at snapshot time. For counters/gauges only `value`
/// is meaningful; histograms carry count/sum/min/max (value = sum).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

class Registry {
 public:
  /// Returns the named metric, creating it on first use. A name is bound
  /// to one kind for the registry's lifetime; requesting it as another
  /// kind throws std::logic_error (catches typos early).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All metrics, sorted by name (deterministic sink output).
  std::vector<MetricSample> snapshot() const;

  /// Zeroes every metric's value; handles stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  // std::map keeps iteration sorted; unique_ptr keeps addresses stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every instrumentation site reports into.
Registry& registry();

}  // namespace flo::obs

#include "storage/stats.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace flo::storage {

std::string SimulationResult::summary() const {
  std::ostringstream os;
  os << "exec " << util::format_duration(exec_time) << ", io miss "
     << util::format_percent(io.miss_rate()) << ", storage miss "
     << util::format_percent(storage.miss_rate()) << ", " << disk_reads
     << " disk reads, " << accesses << " block requests";
  if (disk_writes > 0 || writebacks > 0) {
    os << ", " << writebacks << " writebacks (" << disk_writes
       << " to disk)";
  }
  if (prefetches > 0) {
    os << ", " << prefetches << " prefetches";
  }
  if (queue.any()) {
    os << ", queueing: " << queue.io.waits + queue.storage.waits + queue.disk.waits
       << " waits, "
       << util::format_duration(queue.io.wait_time + queue.storage.wait_time +
                                queue.disk.wait_time)
       << " queued";
  }
  if (!tenants.empty()) {
    os << ", " << tenants.size() << " tenants";
  }
  if (faults.any()) {
    os << ", faults: "
       << faults.storage.transient_failures + faults.disk.transient_failures
       << " retries, "
       << faults.io.bypasses + faults.storage.bypasses << " bypasses, "
       << faults.disk.slow_services << " slow reads, "
       << util::format_duration(faults.io.degraded_time +
                                faults.storage.degraded_time +
                                faults.disk.degraded_time)
       << " degraded";
  }
  return os.str();
}

namespace {

// --- wire codec -----------------------------------------------------------
// Space-separated fields in a fixed order; integers in decimal, doubles as
// C99 hexfloats ("%a") so values round-trip bit-exactly through text. The
// vector fields are length-prefixed. A version tag leads the line, and
// from_wire reads only the current one: a line of any other version is
// unparseable, which the engine's journal treats as a cell still to run.
// Reading older versions could never restore a result anyway: since
// sim-v5 every journal key carries the full topology, QoS fields included,
// so no sim-v1...sim-v4 line names a current cell.
constexpr const char* kWireTag = "sim-v5";

void put_double(std::ostringstream& os, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  os << ' ' << buffer;
}

void put_layer(std::ostringstream& os, const LayerStats& layer) {
  os << ' ' << layer.lookups << ' ' << layer.hits << ' ' << layer.fills << ' '
     << layer.evictions << ' ' << layer.bytes_filled;
}

void put_fault_layer(std::ostringstream& os, const FaultLayerStats& layer) {
  os << ' ' << layer.bypasses << ' ' << layer.transient_failures << ' '
     << layer.slow_services;
  put_double(os, layer.degraded_time);
}

void put_queue_layer(std::ostringstream& os, const QueueLayerStats& layer) {
  os << ' ' << layer.waits;
  put_double(os, layer.wait_time);
  os << ' ' << layer.max_depth;
}

void put_tenant(std::ostringstream& os, const TenantStats& tenant) {
  os << ' ' << tenant.accesses << ' ' << tenant.elements << ' '
     << tenant.io_lookups << ' ' << tenant.io_hits << ' '
     << tenant.storage_lookups << ' ' << tenant.storage_hits << ' '
     << tenant.disk_reads << ' ' << tenant.bytes_filled;
  put_double(os, tenant.busy_time);
  os << ' ' << tenant.io_evictions << ' ' << tenant.storage_evictions << ' '
     << tenant.occupancy_peak;
}

/// Token cursor over a wire line; parse failures latch `ok = false`.
struct Reader {
  std::istringstream is;
  bool ok = true;

  explicit Reader(const std::string& line) : is(line) {}

  std::string token() {
    std::string t;
    if (!(is >> t)) ok = false;
    return t;
  }
  std::uint64_t u64() {
    // Digits only: no sign, so "-1" cannot wrap to 2^64 - 1.
    const std::optional<std::uint64_t> v = util::parse_decimal_u64(token());
    if (!v) ok = false;
    return v.value_or(0);
  }
  double f64() {
    // istream >> double does not reliably parse hexfloats; strtod does.
    const std::string t = token();
    if (!ok) return 0;
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == nullptr || *end != '\0') ok = false;
    return v;
  }
  void layer(LayerStats& out) {
    out.lookups = u64();
    out.hits = u64();
    out.fills = u64();
    out.evictions = u64();
    out.bytes_filled = u64();
  }
  void fault_layer(FaultLayerStats& out) {
    out.bypasses = u64();
    out.transient_failures = u64();
    out.slow_services = u64();
    out.degraded_time = f64();
  }
  void queue_layer(QueueLayerStats& out) {
    out.waits = u64();
    out.wait_time = f64();
    out.max_depth = u64();
  }
  void tenant(TenantStats& out) {
    out.accesses = u64();
    out.elements = u64();
    out.io_lookups = u64();
    out.io_hits = u64();
    out.storage_lookups = u64();
    out.storage_hits = u64();
    out.disk_reads = u64();
    out.bytes_filled = u64();
    out.busy_time = f64();
    out.io_evictions = u64();
    out.storage_evictions = u64();
    out.occupancy_peak = u64();
  }
};

}  // namespace

std::string to_wire(const SimulationResult& result) {
  std::ostringstream os;
  os << kWireTag;
  put_layer(os, result.io);
  put_layer(os, result.storage);
  put_double(os, result.exec_time);
  os << ' ' << result.thread_time.size();
  for (double t : result.thread_time) put_double(os, t);
  os << ' ' << result.disk_reads << ' ' << result.demotions << ' '
     << result.prefetches << ' ' << result.disk_writes << ' '
     << result.writebacks << ' ' << result.accesses << ' ' << result.elements;
  put_fault_layer(os, result.faults.io);
  put_fault_layer(os, result.faults.storage);
  put_fault_layer(os, result.faults.disk);
  os << ' ' << result.faults.exhausted_retries;
  put_queue_layer(os, result.queue.io);
  put_queue_layer(os, result.queue.storage);
  put_queue_layer(os, result.queue.disk);
  os << ' ' << result.io_bound_bytes << ' ' << result.storage_bound_bytes;
  os << ' ' << result.tenants.size();
  for (const TenantStats& tenant : result.tenants) put_tenant(os, tenant);
  return os.str();
}

std::optional<SimulationResult> from_wire(const std::string& line) {
  Reader reader(line);
  if (reader.token() != kWireTag) return std::nullopt;
  SimulationResult result;
  reader.layer(result.io);
  reader.layer(result.storage);
  result.exec_time = reader.f64();
  const std::uint64_t threads = reader.u64();
  if (!reader.ok || threads > (1u << 22)) return std::nullopt;
  result.thread_time.resize(static_cast<std::size_t>(threads));
  for (auto& t : result.thread_time) t = reader.f64();
  result.disk_reads = reader.u64();
  result.demotions = reader.u64();
  result.prefetches = reader.u64();
  result.disk_writes = reader.u64();
  result.writebacks = reader.u64();
  result.accesses = reader.u64();
  result.elements = reader.u64();
  reader.fault_layer(result.faults.io);
  reader.fault_layer(result.faults.storage);
  reader.fault_layer(result.faults.disk);
  result.faults.exhausted_retries = reader.u64();
  reader.queue_layer(result.queue.io);
  reader.queue_layer(result.queue.storage);
  reader.queue_layer(result.queue.disk);
  result.io_bound_bytes = reader.u64();
  result.storage_bound_bytes = reader.u64();
  const std::uint64_t tenant_count = reader.u64();
  if (!reader.ok || tenant_count > (1u << 16)) return std::nullopt;
  result.tenants.resize(static_cast<std::size_t>(tenant_count));
  for (auto& tenant : result.tenants) reader.tenant(tenant);
  std::string trailing;
  if (reader.is >> trailing) return std::nullopt;  // extra fields: reject
  if (!reader.ok) return std::nullopt;
  return result;
}

namespace {

void publish_layer(const char* prefix, const LayerStats& layer) {
  auto& reg = obs::registry();
  const std::string p(prefix);
  reg.counter(p + ".lookups").add(layer.lookups);
  reg.counter(p + ".hits").add(layer.hits);
  reg.counter(p + ".misses").add(layer.misses());
  reg.counter(p + ".fills").add(layer.fills);
  reg.counter(p + ".evictions").add(layer.evictions);
  reg.counter(p + ".bytes_filled").add(layer.bytes_filled);
}

void publish_fault_layer(const char* prefix, const FaultLayerStats& layer) {
  if (!layer.any()) return;  // keep fault-free snapshots free of fault keys
  auto& reg = obs::registry();
  const std::string p(prefix);
  reg.counter(p + ".bypasses").add(layer.bypasses);
  reg.counter(p + ".transient_failures").add(layer.transient_failures);
  reg.counter(p + ".slow_services").add(layer.slow_services);
  reg.histogram(p + ".degraded_seconds").observe(layer.degraded_time);
}

void publish_queue_layer(const char* prefix, const QueueLayerStats& layer) {
  if (!layer.any()) return;  // clock-core snapshots stay free of queue keys
  auto& reg = obs::registry();
  const std::string p(prefix);
  // Counters sum and histogram count/min/max are order-independent, so
  // grid runs publish deterministic queue metrics for any worker count
  // (the same discipline sim.exec_seconds follows).
  reg.counter(p + ".waits").add(layer.waits);
  reg.histogram(p + ".wait_seconds").observe(layer.wait_time);
  reg.histogram(p + ".depth").observe(static_cast<double>(layer.max_depth));
}

}  // namespace

void publish_to_registry(const SimulationResult& result) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  reg.counter("sim.runs").add(1);
  publish_layer("sim.io", result.io);
  publish_layer("sim.storage", result.storage);
  reg.counter("sim.disk_reads").add(result.disk_reads);
  reg.counter("sim.disk_writes").add(result.disk_writes);
  reg.counter("sim.demotions").add(result.demotions);
  reg.counter("sim.prefetches").add(result.prefetches);
  reg.counter("sim.writebacks").add(result.writebacks);
  reg.counter("sim.accesses").add(result.accesses);
  reg.counter("sim.elements").add(result.elements);
  reg.histogram("sim.exec_seconds").observe(result.exec_time);
  publish_fault_layer("sim.faults.io", result.faults.io);
  publish_fault_layer("sim.faults.storage", result.faults.storage);
  publish_fault_layer("sim.faults.disk", result.faults.disk);
  publish_queue_layer("sim.queue.io", result.queue.io);
  publish_queue_layer("sim.queue.storage", result.queue.storage);
  publish_queue_layer("sim.queue.disk", result.queue.disk);
  // Bound counters only when the model makes a claim, so bound-free
  // snapshots (KARMA, faults, caches off) stay free of bound keys.
  if (result.bound_bytes() != 0) {
    reg.counter("sim.io_bound_bytes").add(result.io_bound_bytes);
    reg.counter("sim.storage_bound_bytes").add(result.storage_bound_bytes);
  }
  if (result.faults.exhausted_retries != 0) {
    reg.counter("sim.faults.exhausted_retries")
        .add(result.faults.exhausted_retries);
  }
  // Tenant counters only for multi-tenant runs, so single-tenant snapshots
  // stay free of tenant keys (same discipline as faults/queues/bounds).
  if (!result.tenants.empty()) {
    reg.counter("sim.tenant.runs").add(1);
    bool qos_active = false;
    for (std::size_t k = 0; k < result.tenants.size(); ++k) {
      const TenantStats& t = result.tenants[k];
      const std::string p = "sim.tenant." + std::to_string(k);
      reg.counter(p + ".accesses").add(t.accesses);
      reg.counter(p + ".disk_reads").add(t.disk_reads);
      reg.counter(p + ".bytes_filled").add(t.bytes_filled);
      reg.histogram(p + ".busy_seconds").observe(t.busy_time);
      qos_active = qos_active || t.io_evictions != 0 ||
                   t.storage_evictions != 0 || t.occupancy_peak != 0;
    }
    // QoS partition counters only when partitioning actually attributed
    // something, so non-QoS tenant snapshots stay free of qos keys.
    if (qos_active) {
      reg.counter("sim.qos.runs").add(1);
      for (std::size_t k = 0; k < result.tenants.size(); ++k) {
        const TenantStats& t = result.tenants[k];
        const std::string p = "sim.qos." + std::to_string(k);
        reg.counter(p + ".io_evictions").add(t.io_evictions);
        reg.counter(p + ".storage_evictions").add(t.storage_evictions);
        reg.histogram(p + ".occupancy_peak")
            .observe(static_cast<double>(t.occupancy_peak));
      }
    }
  }
}

}  // namespace flo::storage

#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix::below(std::uint64_t n) { return next() % n; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : std::min(rank, values.size()) - 1];
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Digest::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

namespace {

void layer(Digest& d, const flo::storage::LayerStats& s) {
  d.u64(s.lookups);
  d.u64(s.hits);
  d.u64(s.fills);
  d.u64(s.evictions);
  d.u64(s.bytes_filled);
}

void fault_layer(Digest& d, const flo::storage::FaultLayerStats& s) {
  d.u64(s.bypasses);
  d.u64(s.transient_failures);
  d.u64(s.slow_services);
  d.f64(s.degraded_time);
}

void queue_layer(Digest& d, const flo::storage::QueueLayerStats& s) {
  d.u64(s.waits);
  d.f64(s.wait_time);
  d.u64(s.max_depth);
}

}  // namespace

std::uint64_t digest_result(const flo::storage::SimulationResult& r) {
  Digest d;
  layer(d, r.io);
  layer(d, r.storage);
  d.f64(r.exec_time);
  d.u64(r.thread_time.size());
  for (const double t : r.thread_time) d.f64(t);
  d.u64(r.disk_reads);
  d.u64(r.demotions);
  d.u64(r.prefetches);
  d.u64(r.disk_writes);
  d.u64(r.writebacks);
  d.u64(r.accesses);
  d.u64(r.elements);
  fault_layer(d, r.faults.io);
  fault_layer(d, r.faults.storage);
  fault_layer(d, r.faults.disk);
  d.u64(r.faults.exhausted_retries);
  queue_layer(d, r.queue.io);
  queue_layer(d, r.queue.storage);
  queue_layer(d, r.queue.disk);
  d.u64(r.tenants.size());
  for (const auto& t : r.tenants) {
    d.u64(t.accesses);
    d.u64(t.elements);
    d.u64(t.io_lookups);
    d.u64(t.io_hits);
    d.u64(t.storage_lookups);
    d.u64(t.storage_hits);
    d.u64(t.disk_reads);
    d.u64(t.bytes_filled);
    d.f64(t.busy_time);
    d.u64(t.io_evictions);
    d.u64(t.storage_evictions);
    d.u64(t.occupancy_peak);
  }
  d.u64(r.io_bound_bytes);
  d.u64(r.storage_bound_bytes);
  return d.value();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Outputs::first_difference(const Outputs& other) const {
  for (const auto& [label, digest] : items) {
    const auto it = other.items.find(label);
    if (it == other.items.end() || it->second != digest) return label;
  }
  for (const auto& [label, digest] : other.items) {
    if (items.count(label) == 0) return label;
  }
  return {};
}

void check_bound(const std::string& label,
                 const flo::storage::SimulationResult& r,
                 std::vector<std::string>& violations) {
  if (r.io_bound_bytes != 0 && r.io.bytes_filled < r.io_bound_bytes) {
    violations.push_back(label + ": I/O fills " +
                         std::to_string(r.io.bytes_filled) +
                         " B below the lower bound " +
                         std::to_string(r.io_bound_bytes) + " B");
  }
  if (r.storage_bound_bytes != 0 &&
      r.storage.bytes_filled < r.storage_bound_bytes) {
    violations.push_back(label + ": storage fills " +
                         std::to_string(r.storage.bytes_filled) +
                         " B below the lower bound " +
                         std::to_string(r.storage_bound_bytes) + " B");
  }
}

}  // namespace perfbench

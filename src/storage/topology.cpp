#include "storage/topology.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/format.hpp"

namespace flo::storage {

TopologyConfig TopologyConfig::paper_default(std::uint64_t capacity_scale,
                                             std::uint64_t block_scale) {
  if (capacity_scale == 0 || block_scale == 0) {
    throw std::invalid_argument("paper_default: zero scale");
  }
  TopologyConfig c;
  c.compute_nodes = 64;
  c.io_nodes = 16;
  c.storage_nodes = 4;
  c.block_size = (128ull << 10) / block_scale;  // 128 KB stripe/block
  c.io_cache_bytes = (1ull << 30) / capacity_scale;       // 1 GB per I/O node
  c.storage_cache_bytes = (2ull << 30) / capacity_scale;  // 2 GB per node
  if (c.block_size == 0 || c.io_cache_bytes < c.block_size) {
    throw std::invalid_argument("paper_default: scale too large");
  }
  return c;
}

StorageTopology::StorageTopology(TopologyConfig config)
    : config_(std::move(config)) {
  if (config_.compute_nodes == 0 || config_.io_nodes == 0 ||
      config_.storage_nodes == 0) {
    throw std::invalid_argument("StorageTopology: zero node count");
  }
  if (config_.compute_nodes % config_.io_nodes != 0) {
    throw std::invalid_argument(
        "StorageTopology: compute_nodes must be a multiple of io_nodes");
  }
  if (config_.io_nodes % config_.storage_nodes != 0) {
    throw std::invalid_argument(
        "StorageTopology: io_nodes must be a multiple of storage_nodes");
  }
  if (config_.block_size == 0) {
    throw std::invalid_argument("StorageTopology: zero block size");
  }
  if (config_.io_cache_bytes < config_.block_size ||
      config_.storage_cache_bytes < config_.block_size) {
    throw std::invalid_argument(
        "StorageTopology: cache smaller than one block");
  }
  // Timing inputs: every charge a core adds to a virtual clock must be a
  // finite non-negative number (the packed scheduler keys rely on it).
  const auto check_time = [](double seconds, const char* name) {
    if (!(std::isfinite(seconds) && seconds >= 0)) {
      throw std::invalid_argument(std::string("StorageTopology: ") + name +
                                  " must be finite and >= 0");
    }
  };
  const LatencyModel& latency = config_.latency;
  check_time(latency.cpu_per_element, "latency.cpu_per_element");
  check_time(latency.net_compute_io, "latency.net_compute_io");
  check_time(latency.io_cache_hit, "latency.io_cache_hit");
  check_time(latency.net_io_storage, "latency.net_io_storage");
  check_time(latency.storage_cache_hit, "latency.storage_cache_hit");
  check_time(latency.demotion_cost, "latency.demotion_cost");
  check_time(config_.disk.min_seek, "disk.min_seek");
  check_time(config_.disk.max_seek, "disk.max_seek");
  config_.fault.validate();
  for (const auto& outage : config_.fault.outages) {
    const std::size_t nodes = outage.layer == FaultLayer::kIo
                                  ? config_.io_nodes
                                  : config_.storage_nodes;
    if (outage.node >= nodes) {
      throw std::invalid_argument(std::string("StorageTopology: outage ") +
                                  fault_layer_name(outage.layer) +
                                  " node out of range");
    }
  }
}

NodeId StorageTopology::io_node_of(NodeId compute_node) const {
  if (compute_node >= config_.compute_nodes) {
    throw std::out_of_range("io_node_of: bad compute node");
  }
  return static_cast<NodeId>(compute_node / compute_per_io());
}

std::size_t StorageTopology::compute_per_io() const {
  return config_.compute_nodes / config_.io_nodes;
}

std::size_t StorageTopology::io_per_storage() const {
  return config_.io_nodes / config_.storage_nodes;
}

NodeId StorageTopology::storage_node_of_io(NodeId io_node) const {
  if (io_node >= config_.io_nodes) {
    throw std::out_of_range("storage_node_of_io: bad io node");
  }
  return static_cast<NodeId>(io_node / io_per_storage());
}

std::size_t StorageTopology::io_cache_blocks() const {
  return static_cast<std::size_t>(config_.io_cache_bytes / config_.block_size);
}

std::size_t StorageTopology::storage_cache_blocks() const {
  return static_cast<std::size_t>(config_.storage_cache_bytes /
                                  config_.block_size);
}

std::string StorageTopology::describe() const {
  std::ostringstream os;
  os << "(" << config_.compute_nodes << ", " << config_.io_nodes << ", "
     << config_.storage_nodes << ") nodes, block "
     << util::format_bytes(config_.block_size) << ", caches "
     << util::format_bytes(config_.io_cache_bytes) << "/"
     << util::format_bytes(config_.storage_cache_bytes) << " ("
     << io_cache_blocks() << "/" << storage_cache_blocks() << " blocks)";
  return os.str();
}

}  // namespace flo::storage

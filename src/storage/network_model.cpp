#include "storage/network_model.hpp"

#include <stdexcept>

namespace flo::storage {

NetworkModel::NetworkModel(const LatencyModel& latency,
                           std::uint64_t block_size, double link_bandwidth) {
  if (link_bandwidth <= 0) {
    throw std::invalid_argument("NetworkModel: bad bandwidth");
  }
  const double wire = static_cast<double>(block_size) / link_bandwidth;
  compute_io_ = latency.net_compute_io + wire;
  io_storage_ = latency.net_io_storage + wire;
  demotion_ = latency.demotion_cost + wire;
}

}  // namespace flo::storage

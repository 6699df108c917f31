#include "storage/disk_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flo::storage {

DiskArray::DiskArray(std::size_t disks, const DiskModel& model,
                     std::uint64_t block_size)
    : model_(model), head_(disks, 0) {
  if (disks == 0) throw std::invalid_argument("DiskArray: zero disks");
  if (model_.rpm == 0 ||
      !(std::isfinite(model_.bandwidth) && model_.bandwidth > 0)) {
    throw std::invalid_argument("DiskArray: bad disk parameters");
  }
  rotational_delay_ = 0.5 * 60.0 / static_cast<double>(model_.rpm);
  transfer_time_ = static_cast<double>(block_size) / model_.bandwidth;
}

double DiskArray::seek_time(std::uint64_t from, std::uint64_t to) const {
  // Same block or the adjacent one: the data streams under the head at
  // full bandwidth (no repositioning, no rotational wait). A configured
  // track-buffer readahead window widens that free zone (the controller
  // already buffered the surrounding track).
  const std::uint64_t dist = from > to ? from - to : to - from;
  if (dist <= std::max<std::uint64_t>(1, model_.readahead_window)) return 0.0;
  // Cylinder-group locality: blocks allocated into the same group are a
  // short rotational seek apart however far their LBAs are numerically.
  if (model_.cylinder_group_blocks != 0 &&
      from / model_.cylinder_group_blocks == to / model_.cylinder_group_blocks) {
    return model_.min_seek;
  }
  if (dist == 2) return model_.min_seek;
  const double frac = static_cast<double>(dist) /
                      static_cast<double>(model_.capacity_blocks);
  return model_.min_seek +
         (model_.max_seek - model_.min_seek) * std::sqrt(std::min(frac, 1.0));
}

double DiskArray::service(NodeId disk, std::uint64_t lba) {
  const double t = peek_service(disk, lba);
  head_.at(disk) = lba;
  ++reads_;
  return t;
}

double DiskArray::service_run(NodeId disk, std::uint64_t lba,
                              std::uint32_t run_blocks) {
  if (run_blocks == 0) return 0.0;
  // First block pays the positioning cost; every later block is adjacent
  // to the new head (distance 1 -> zero seek, zero rotation), i.e. exactly
  // what per-block service() charges once the head is in place. Summation
  // order matches the per-block loop for bitwise-equal totals.
  double total = service(disk, lba);
  for (std::uint32_t i = 1; i < run_blocks; ++i) {
    total += service(disk, lba + i);
  }
  return total;
}

double DiskArray::peek_service(NodeId disk, std::uint64_t lba) const {
  const double seek = seek_time(head_.at(disk), lba);
  // Sequential reads (head already positioned) skip the rotational wait:
  // the next block streams under the head.
  const double rotation = seek == 0.0 ? 0.0 : rotational_delay_;
  return seek + rotation + transfer_time_;
}

void DiskArray::advance_head(NodeId disk, std::uint64_t lba) {
  head_.at(disk) = lba;
}

void DiskArray::note_sequential_reads(NodeId disk, std::uint64_t last_lba,
                                      std::uint64_t count) {
  if (count == 0) return;
  head_.at(disk) = last_lba;
  reads_ += count;
}

void DiskArray::reset() {
  for (auto& h : head_) h = 0;
  reads_ = 0;
}

}  // namespace flo::storage

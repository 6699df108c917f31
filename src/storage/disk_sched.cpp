#include "storage/disk_sched.hpp"

#include <algorithm>
#include <stdexcept>

namespace flo::storage {

void DiskScheduler::push(std::uint64_t lba, std::uint32_t thread,
                         double arrival, std::uint32_t priority) {
  Rec rec;
  rec.lba = lba;
  rec.seq = seq_++;
  rec.thread = thread;
  // The deadline is fixed at enqueue time: later arrivals of the same
  // priority class always have later deadlines, so nothing starves.
  rec.deadline =
      arrival + window_ / static_cast<double>(priority == 0 ? 1 : priority);
  // Every queued seq is smaller, so (lba, seq) order puts the new request
  // after all requests at its lba.
  const auto pos = std::upper_bound(
      pending_.begin(), pending_.end(), lba,
      [](std::uint64_t l, const Rec& r) { return l < r.lba; });
  pending_.insert(pos, rec);
}

std::uint32_t DiskScheduler::pop(std::uint64_t head) {
  if (pending_.empty()) {
    throw std::logic_error("DiskScheduler: pop from an empty queue");
  }
  auto it = pending_.begin();
  switch (policy_) {
    case SchedPolicyKind::kLook: {
      // Continue the current sweep from the head position, reverse when
      // the sweep is exhausted — verbatim the PR 6 inline elevator.
      it = std::lower_bound(
          pending_.begin(), pending_.end(), head,
          [](const Rec& r, std::uint64_t h) { return r.lba < h; });
      if (upward_) {
        if (it == pending_.end()) {
          upward_ = false;
          it = std::prev(pending_.end());
        }
      } else {
        if (it == pending_.begin()) {
          upward_ = true;
        } else {
          it = std::prev(it);
        }
      }
      break;
    }
    case SchedPolicyKind::kFcfs: {
      // Strict arrival order: smallest sequence number.
      for (auto cand = pending_.begin(); cand != pending_.end(); ++cand) {
        if (cand->seq < it->seq) it = cand;
      }
      break;
    }
    case SchedPolicyKind::kPriority: {
      // Earliest deadline first; ties broken by arrival sequence.
      for (auto cand = pending_.begin(); cand != pending_.end(); ++cand) {
        if (cand->deadline < it->deadline ||
            (cand->deadline == it->deadline && cand->seq < it->seq)) {
          it = cand;
        }
      }
      break;
    }
  }
  const std::uint32_t thread = it->thread;
  pending_.erase(it);
  return thread;
}

}  // namespace flo::storage

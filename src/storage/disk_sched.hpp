// Pluggable per-disk service-queue discipline for the event core
// (DESIGN.md §4k). PR 6 hard-wired a LOOK elevator into EventEngine's
// DiskState; this extracts the queue + sweep state behind a policy switch
// so tenant QoS can trade seek efficiency against fairness:
//
//   * look     — the elevator: continue the current sweep from the head
//                position, reverse when exhausted. Bit-identical to the
//                former inline code (same {lba, seq} order, same
//                lower_bound/sweep-flag logic), which is what keeps
//                FLO_SCHED=look inside the qos-neutrality envelope.
//   * fcfs     — strict arrival order, seek costs be damned. The honest
//                baseline a fairness win must be measured against.
//   * priority — earliest deadline first: a queued request's deadline is
//                arrival + window / tenant_priority, so high-priority
//                tenants age faster toward the head of the queue while
//                a starving low-priority request still wins eventually
//                (its deadline is fixed at enqueue time; everything
//                admitted later gets a later deadline of the same
//                priority class).
//
// Deterministic by construction: every policy breaks ties by arrival
// sequence number, never by wall time or container iteration order.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/qos.hpp"

namespace flo::storage {

class DiskScheduler {
 public:
  DiskScheduler() = default;
  explicit DiskScheduler(SchedPolicyKind policy, double window)
      : policy_(policy), window_(window) {}

  SchedPolicyKind policy() const { return policy_; }
  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  /// Queues a request. `priority` (>= 1) is consulted by the priority
  /// policy only; `arrival` is the enqueue time used for its deadline.
  void push(std::uint64_t lba, std::uint32_t thread, double arrival,
            std::uint32_t priority);

  /// Removes and returns the thread to dispatch next, given the current
  /// head position. Must not be called on an empty queue.
  std::uint32_t pop(std::uint64_t head);

 private:
  struct Rec {
    std::uint64_t lba = 0;
    std::uint64_t seq = 0;  ///< arrival order
    double deadline = 0;
    std::uint32_t thread = 0;
  };

  SchedPolicyKind policy_ = SchedPolicyKind::kLook;
  double window_ = 20e-3;
  // Sorted by (lba, arrival seq): LOOK's sweep order, and a deterministic
  // tie-break for every policy. Queue depth is bounded by the thread
  // count, so the O(n) insert/erase shifts of one contiguous vector (and
  // fcfs/priority's linear scans) beat a node-based ordered map.
  std::vector<Rec> pending_;
  bool upward_ = true;  ///< current elevator sweep direction
  std::uint64_t seq_ = 0;
};

}  // namespace flo::storage

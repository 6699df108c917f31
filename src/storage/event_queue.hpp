// Global discrete-event queue for the event simulator core.
//
// A PackedHeap (storage/packed_heap.hpp) of whole events: each node
// carries its packed (time, seq) key and its payload inline, so a
// comparison is one integer compare and a sift moves one hole instead of
// swapping at each level. Sequence numbers are assigned at push, which
// makes the pop order deterministic for simultaneous events (first posted
// fires first) and lets the queue assert monotonic virtual time — an
// event may never be posted before the last popped time.
#pragma once

#include <cstdint>

#include "storage/packed_heap.hpp"

namespace flo::storage {

/// What an event means to the engine. The queue itself is agnostic; the
/// kinds are defined here so a node stores its kind in one byte.
enum class EventKind : std::uint8_t {
  kThreadIssue,    ///< a thread is ready to issue its next block request
  kIoArrive,       ///< a request reaches its I/O node's service queue
  kIoDone,         ///< I/O-cache service finished (hit completion)
  kStorageArrive,  ///< a request reaches its storage node's service queue
  kStorageDone,    ///< storage-cache service finished (hit completion)
  kDiskDone,       ///< disk service finished for the dispatched request
};

/// One scheduled occurrence, as returned by pop(). `a` and `b` are
/// kind-specific payload words (thread id, request id, node id, ...).
struct Event {
  double time = 0;
  EventKind kind = EventKind::kThreadIssue;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Earliest pending time; undefined when empty.
  double next_time() const { return key_time(heap_.top().key); }

  /// Schedules an event. `time` must be >= the last popped time (virtual
  /// time is monotonic; a NaN time fails the check too); violations throw
  /// std::logic_error — an engine bug, never a data-dependent condition.
  void push(double time, EventKind kind, std::uint32_t a = 0,
            std::uint64_t b = 0);

  /// Removes and returns the earliest event (ties broken by push order).
  Event pop();

  /// Peak number of simultaneously pending events over the queue lifetime.
  std::size_t max_pending() const { return max_pending_; }

  void clear();

 private:
  struct Node {
    HeapKey key;  ///< pack_key(time, seq)
    std::uint64_t b;
    std::uint32_t a;
    EventKind kind;
  };
  PackedHeap<Node> heap_;
  std::uint64_t next_seq_ = 0;
  double last_popped_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace flo::storage

#include "storage/event_queue.hpp"

#include <stdexcept>

namespace flo::storage {

void EventQueue::push(double time, EventKind kind, std::uint32_t a,
                      std::uint64_t b) {
  if (time < last_popped_) {
    throw std::logic_error("EventQueue: event posted before current time");
  }
  const Node node{time, next_seq_++, b, a, kind};
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(node, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = node;
  if (heap_.size() > max_pending_) max_pending_ = heap_.size();
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue: pop on empty queue");
  const Node top = heap_.front();
  const Node last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
  }
  last_popped_ = top.time;
  return {top.time, top.kind, top.a, top.b};
}

void EventQueue::clear() {
  heap_.clear();
  next_seq_ = 0;
  last_popped_ = 0;
  max_pending_ = 0;
}

}  // namespace flo::storage

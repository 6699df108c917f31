#include "storage/event_queue.hpp"

#include <stdexcept>

namespace flo::storage {

void EventQueue::push(double time, EventKind kind, std::uint32_t a,
                      std::uint64_t b) {
  if (!(time >= last_popped_)) {
    throw std::logic_error("EventQueue: event posted before current time");
  }
  heap_.push({pack_key(time, next_seq_++), b, a, kind});
  if (heap_.size() > max_pending_) max_pending_ = heap_.size();
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue: pop on empty queue");
  const Node top = heap_.top();
  heap_.pop();
  last_popped_ = key_time(top.key);
  return {last_popped_, top.kind, top.a, top.b};
}

void EventQueue::clear() {
  heap_.clear();
  next_seq_ = 0;
  last_popped_ = 0;
  max_pending_ = 0;
}

}  // namespace flo::storage

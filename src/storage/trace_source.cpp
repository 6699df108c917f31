#include "storage/trace_source.hpp"

#include <algorithm>

#include "util/parse.hpp"

namespace flo::storage {

bool extents_enabled() {
  static const bool enabled =
      util::read_knob("FLO_EXTENTS", [](const std::string& value) {
        return value != "0";
      }).value_or(true);
  return enabled;
}

namespace {

/// Cursor over one stored ThreadTrace (or an empty stream when the phase
/// has fewer thread streams than the topology has threads).
class VectorCursor final : public ThreadCursor {
 public:
  explicit VectorCursor(const ThreadTrace* events) : events_(events) {}

  bool next(AccessEvent& out) override {
    if (events_ == nullptr || index_ >= events_->size()) return false;
    out = (*events_)[index_++];
    return true;
  }

 private:
  const ThreadTrace* events_;
  std::size_t index_ = 0;
};

}  // namespace

MaterializedTraceSource::MaterializedTraceSource(const TraceProgram& trace)
    : trace_(&trace) {
  for (const auto& phase : trace.phases) {
    thread_count_ = std::max(thread_count_, phase.per_thread.size());
  }
}

std::unique_ptr<ThreadCursor> MaterializedTraceSource::open(
    std::size_t phase, std::uint32_t thread) const {
  const auto& per_thread = trace_->phases[phase].per_thread;
  const ThreadTrace* events =
      thread < per_thread.size() ? &per_thread[thread] : nullptr;
  return std::make_unique<VectorCursor>(events);
}

}  // namespace flo::storage

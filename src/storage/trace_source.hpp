// Pull-based trace abstraction: the simulator consumes per-thread event
// cursors instead of materialized event vectors, so a trace provider can
// generate events lazily (O(threads) resident state) or replay a stored
// TraceProgram. Both the eager and the streaming generator in trace/
// implement this interface; the simulator cannot tell them apart — the
// golden tests in tests/trace/source_test.cpp hold them to bit-identical
// event streams.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/topology.hpp"

namespace flo::storage {

/// One block-request extent: `run_blocks` consecutive blocks starting at
/// `block`, each of which coalesces `element_count` element accesses (the
/// CPU cost is per element, the cache/disk cost per block request). The
/// common case is `run_blocks == 1` — one request for one block; extent
/// producers (trace/source.cpp with `emit_extents`) run-length-encode
/// ascending same-count block runs so the simulator can service a whole
/// sequential run per scheduler step. An extent is *defined* as exactly
/// the per-block events {file, block + i, element_count, is_write} for
/// i in [0, run_blocks): expanding it reproduces the reference stream
/// bit-for-bit, which the extent/per-block equivalence suite enforces.
struct AccessEvent {
  FileId file = 0;
  std::uint64_t block = 0;
  /// Elements coalesced into EACH block request of the extent. 64-bit:
  /// a stride-0 innermost dimension coalesces its entire trip count into
  /// one request, which can exceed 2^32 (tests/trace/source_test.cpp).
  std::uint64_t element_count = 1;
  bool is_write = false;  ///< consulted only when model_writes is on
  /// Consecutive blocks in this extent. Declared after is_write so the
  /// ubiquitous {file, block, count, is_write} aggregate initializers keep
  /// meaning what they say (run_blocks then defaults to 1).
  std::uint32_t run_blocks = 1;

  friend bool operator==(const AccessEvent&, const AccessEvent&) = default;
};

/// FLO_EXTENTS switch, read once through util::read_knob: extent batching
/// is on by default and for any value but 0 (the fast path is
/// bit-identical to the per-block reference); FLO_EXTENTS=0 forces every
/// producer and the simulator onto the golden per-block path.
bool extents_enabled();

using ThreadTrace = std::vector<AccessEvent>;

/// One bulk-synchronous phase (one parallelized loop nest execution).
/// `repeat` replays the phase back to back (time-stepped outer loops) with
/// a barrier between repetitions, without duplicating the event storage.
struct PhaseTrace {
  std::vector<ThreadTrace> per_thread;
  std::uint32_t repeat = 1;
};

/// A full materialized application trace plus the file geometry the
/// simulator needs.
struct TraceProgram {
  std::vector<PhaseTrace> phases;
  std::vector<std::uint64_t> file_blocks;  ///< size of each file in blocks
};

/// Pull-cursor over one thread's event stream within one phase. Cursors
/// are single-pass; re-traversal (phase repeats) re-opens a fresh cursor
/// through TraceSource::open, which must yield the identical stream.
class ThreadCursor {
 public:
  virtual ~ThreadCursor() = default;

  /// Produces the next event into `out`; returns false at end of stream
  /// (and leaves `out` untouched).
  virtual bool next(AccessEvent& out) = 0;
};

/// A lazily traversable trace program: phase/thread structure, file
/// geometry, and per-(phase, thread) event cursors.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual std::size_t phase_count() const = 0;
  virtual std::uint32_t phase_repeat(std::size_t phase) const = 0;

  /// Number of thread streams per phase (threads beyond a phase's parallel
  /// extent simply get empty cursors).
  virtual std::size_t thread_count() const = 0;

  virtual const std::vector<std::uint64_t>& file_blocks() const = 0;

  /// Opens a fresh cursor at the start of `thread`'s stream in `phase`.
  /// May be called any number of times per (phase, thread); every opening
  /// must replay the same events.
  virtual std::unique_ptr<ThreadCursor> open(std::size_t phase,
                                             std::uint32_t thread) const = 0;
};

/// Per-thread cursor handoff shared by the simulator cores: one buffered
/// extent (`head`, consumed in place block by block) plus the cursor that
/// refills it. Both the clock scheduler and the event engine pump their
/// thread streams through this, so the cursor protocol — single-pass,
/// refill only once the current extent is fully consumed — lives in one
/// place instead of two scheduling loops.
class CursorPump {
 public:
  CursorPump() = default;
  explicit CursorPump(std::unique_ptr<ThreadCursor> cursor)
      : cursor_(std::move(cursor)) {}

  /// Buffers the first extent; false when the stream is empty.
  bool prime() { return cursor_ != nullptr && cursor_->next(head_); }

  /// The extent currently being consumed. Cores advance `head().block`
  /// and decrement `head().run_blocks` as they service blocks.
  AccessEvent& head() { return head_; }
  const AccessEvent& head() const { return head_; }

  /// True once every block of the buffered extent has been consumed.
  bool exhausted() const { return head_.run_blocks == 0; }

  /// Refills `head` with the next extent; false at end of stream.
  bool refill() { return cursor_->next(head_); }

 private:
  std::unique_ptr<ThreadCursor> cursor_;
  AccessEvent head_;
};

/// Adapter presenting a materialized TraceProgram as a TraceSource (does
/// not own the trace; the trace must outlive the source).
class MaterializedTraceSource final : public TraceSource {
 public:
  explicit MaterializedTraceSource(const TraceProgram& trace);

  std::size_t phase_count() const override { return trace_->phases.size(); }
  std::uint32_t phase_repeat(std::size_t phase) const override {
    return trace_->phases[phase].repeat;
  }
  std::size_t thread_count() const override { return thread_count_; }
  const std::vector<std::uint64_t>& file_blocks() const override {
    return trace_->file_blocks;
  }
  std::unique_ptr<ThreadCursor> open(std::size_t phase,
                                     std::uint32_t thread) const override;

 private:
  const TraceProgram* trace_;
  std::size_t thread_count_ = 0;  ///< max per-thread streams over phases
};

}  // namespace flo::storage

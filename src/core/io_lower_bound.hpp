// Per-layer I/O lower bounds (DESIGN.md §4i), in the spirit of
// Kwasniewski et al.'s parallel-I/O lower-bound methodology: from the
// access footprint and the cache capacities alone, how many bytes MUST
// cross into each cache layer, no matter what file layout or replacement
// decisions are made?
//
// The model is deliberately conservative (a true lower bound, never an
// estimate):
//
//   I/O layer: every distinct block a given I/O node's threads request
//   must be filled into that node's cache at least once (compulsory
//   misses). Additionally, when a phase touching D distinct blocks at a
//   node with capacity M replays R times, at most M of those blocks can
//   survive between repetitions, so each extra repetition forces at
//   least D - M further fills.
//
//   Storage layer: under the inclusive read-path policies every touched
//   block's first access stages it into some storage cache, so the
//   global distinct footprint bounds storage fills.
//
// Configurations whose fill behavior the model cannot bound from below
// (KARMA's pinned ranges bypass layers; DEMOTE-LRU populates the storage
// cache by demotions only; fault injection skips fills during outages)
// report a bound of zero for the affected layer — "no claim", which keeps
// achieved >= bound trivially true rather than wrong.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/policy.hpp"
#include "storage/trace_source.hpp"
#include "storage/topology.hpp"

namespace flo::core {

/// Minimum bytes filled into each cache layer over a whole simulation.
struct IoBound {
  std::uint64_t io_bound_bytes = 0;       ///< across all I/O-node caches
  std::uint64_t storage_bound_bytes = 0;  ///< across all storage caches
};

/// Computes the bound by a single pass over the trace (re-opening each
/// (phase, thread) cursor once; repetitions are accounted analytically).
/// Memory and the end-of-phase sweeps scale with the 32,768-block pages
/// the trace touches, not with the declared file sizes.
/// `io_node_of_thread` maps each of source.thread_count() threads to the
/// I/O node serving it, exactly as handed to HierarchySimulator.
IoBound compute_io_lower_bound(
    const storage::TraceSource& source,
    const std::vector<storage::NodeId>& io_node_of_thread,
    const storage::StorageTopology& topology, storage::PolicyKind policy);

}  // namespace flo::core

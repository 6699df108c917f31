// Simulator core selection: the clock core (per-thread virtual clocks with
// the extent fast path — the golden reference) versus the discrete-event
// core (global event queue with shared-cache queueing, disk-head
// scheduling and asynchronous readahead). The FLO_SIM environment knob
// picks the process-wide default; HierarchySimulator::set_core overrides
// it per instance (DESIGN.md §4g).
#pragma once

#include <optional>
#include <string>

namespace flo::storage {

enum class SimCoreKind {
  kClock,  ///< per-thread virtual clocks + extent batching (golden)
  kEvent,  ///< discrete-event engine with contention modeling
};

const char* sim_core_name(SimCoreKind core);

/// Parses "clock" or "event" (case-sensitive); std::nullopt otherwise.
std::optional<SimCoreKind> parse_sim_core(const std::string& name);

/// Process default from FLO_SIM ("clock" unless FLO_SIM=event), read once
/// through util::read_knob. An unrecognized value throws util::KnobError
/// instead of silently simulating with the wrong core.
SimCoreKind sim_core_from_env();

}  // namespace flo::storage

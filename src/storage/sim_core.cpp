#include "storage/sim_core.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace flo::storage {

const char* sim_core_name(SimCoreKind core) {
  switch (core) {
    case SimCoreKind::kClock:
      return "clock";
    case SimCoreKind::kEvent:
      return "event";
  }
  return "?";
}

std::optional<SimCoreKind> parse_sim_core(const std::string& name) {
  if (name == "clock") return SimCoreKind::kClock;
  if (name == "event") return SimCoreKind::kEvent;
  return std::nullopt;
}

SimCoreKind sim_core_from_env() {
  static const SimCoreKind core =
      util::read_knob("FLO_SIM", [](const std::string& name) {
        if (const auto parsed = parse_sim_core(name)) return *parsed;
        throw std::invalid_argument("unknown simulator core '" + name +
                                    "' (expected clock or event)");
      }).value_or(SimCoreKind::kClock);
  return core;
}

}  // namespace flo::storage

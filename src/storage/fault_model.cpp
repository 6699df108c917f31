#include "storage/fault_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/parse.hpp"

namespace flo::storage {

const char* fault_layer_name(FaultLayer layer) {
  switch (layer) {
    case FaultLayer::kIo:
      return "io";
    case FaultLayer::kStorage:
      return "storage";
  }
  return "?";
}

bool FaultConfig::any_faults() const {
  return enabled &&
         (storage_transient_rate > 0 || disk_transient_rate > 0 ||
          slow_disk_rate > 0 || !outages.empty());
}

void FaultConfig::validate() const {
  // Every check is written as "fail unless in range", so NaN fails it.
  const auto check_rate = [](double rate, const char* name) {
    if (!(rate >= 0 && rate <= 1)) {
      throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                  " must be in [0, 1]");
    }
  };
  check_rate(storage_transient_rate, "storage_transient_rate");
  check_rate(disk_transient_rate, "disk_transient_rate");
  check_rate(slow_disk_rate, "slow_disk_rate");
  if (!(std::isfinite(slow_disk_multiplier) && slow_disk_multiplier >= 1)) {
    throw std::invalid_argument(
        "FaultConfig: slow_disk_multiplier must be finite and >= 1");
  }
  if (!(std::isfinite(retry_backoff) && retry_backoff >= 0)) {
    throw std::invalid_argument(
        "FaultConfig: retry_backoff must be finite and >= 0");
  }
  for (const auto& outage : outages) {
    if (!(std::isfinite(outage.start) && std::isfinite(outage.end) &&
          outage.start >= 0)) {
      throw std::invalid_argument(
          "FaultConfig: outage times must be finite and >= 0");
    }
    if (!(outage.end >= outage.start)) {
      throw std::invalid_argument("FaultConfig: outage ends before it starts");
    }
  }
}

namespace {

constexpr std::string_view kSpec = "fault spec";
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

OutageWindow parse_outage(const std::string& value) {
  const auto parts = util::split(value, ':');
  if (parts.size() != 4) {
    throw std::invalid_argument(
        "fault spec: outage wants <io|storage>:<node>:<start>:<end>, got '" +
        value + "'");
  }
  OutageWindow window;
  if (parts[0] == "io") {
    window.layer = FaultLayer::kIo;
  } else if (parts[0] == "storage") {
    window.layer = FaultLayer::kStorage;
  } else {
    throw std::invalid_argument("fault spec: unknown outage layer '" +
                                parts[0] + "'");
  }
  window.node = static_cast<std::uint32_t>(
      util::spec_integer(kSpec, "outage node", parts[1], kU32Max));
  window.start = util::spec_number(kSpec, "outage start", parts[2]);
  window.end = util::spec_number(kSpec, "outage end", parts[3]);
  return window;
}

/// splitmix64 finalizer: a high-quality 64-bit mix used to turn (seed,
/// category, draw index) into an independent uniform draw.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig config;
  if (spec.empty()) return config;
  config.enabled = true;
  for (const std::string& entry : util::split(spec, ',')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  entry + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      config.seed = util::spec_integer(kSpec, key, value);
    } else if (key == "transient") {
      config.disk_transient_rate = util::spec_number(kSpec, key, value);
      config.storage_transient_rate = config.disk_transient_rate;
    } else if (key == "disk-transient") {
      config.disk_transient_rate = util::spec_number(kSpec, key, value);
    } else if (key == "storage-transient") {
      config.storage_transient_rate = util::spec_number(kSpec, key, value);
    } else if (key == "retries") {
      config.max_retries = static_cast<std::uint32_t>(
          util::spec_integer(kSpec, key, value, kU32Max));
    } else if (key == "backoff") {
      config.retry_backoff = util::spec_number(kSpec, key, value);
    } else if (key == "slow") {
      config.slow_disk_rate = util::spec_number(kSpec, key, value);
    } else if (key == "slow-mult") {
      config.slow_disk_multiplier = util::spec_number(kSpec, key, value);
    } else if (key == "outage") {
      config.outages.push_back(parse_outage(value));
    } else {
      throw std::invalid_argument("fault spec: unknown key '" + key + "'");
    }
  }
  config.validate();
  return config;
}

FaultConfig fault_config_from_env(FaultConfig fallback) {
  static const std::optional<FaultConfig> spec =
      util::read_knob("FLO_FAULTS", parse_fault_spec);
  return spec ? *spec : std::move(fallback);
}

FaultPlan::FaultPlan(FaultConfig config) : config_(std::move(config)) {
  config_.validate();
}

void FaultPlan::reset() {
  storage_fail_draws_ = 0;
  disk_fail_draws_ = 0;
  slow_draws_ = 0;
}

bool FaultPlan::offline(FaultLayer layer, std::uint32_t node,
                        double now) const {
  if (!config_.enabled) return false;
  for (const auto& outage : config_.outages) {
    if (outage.layer == layer && outage.node == node && now >= outage.start &&
        now < outage.end) {
      return true;
    }
  }
  return false;
}

double FaultPlan::draw(std::uint64_t salt, std::uint64_t& counter) {
  const std::uint64_t z = mix(config_.seed ^ mix(salt ^ ++counter));
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool FaultPlan::storage_read_fails() {
  if (!config_.enabled || config_.storage_transient_rate <= 0) return false;
  return draw(0x5706FA17u, storage_fail_draws_) <
         config_.storage_transient_rate;
}

bool FaultPlan::disk_read_fails() {
  if (!config_.enabled || config_.disk_transient_rate <= 0) return false;
  return draw(0xD15CFA17u, disk_fail_draws_) < config_.disk_transient_rate;
}

bool FaultPlan::disk_read_slow() {
  if (!config_.enabled || config_.slow_disk_rate <= 0) return false;
  return draw(0x510D15Cu, slow_draws_) < config_.slow_disk_rate;
}

double FaultPlan::backoff(std::uint32_t attempt) const {
  // Clamp the exponent: a pathological retry budget must not overflow the
  // shift (the charged time saturates instead).
  const std::uint32_t exponent = attempt < 62 ? attempt : 62;
  return config_.retry_backoff * static_cast<double>(1ull << exponent);
}

}  // namespace flo::storage

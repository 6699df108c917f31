// Strict parsing of integer flags, environment knobs and wire fields.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace flo::util {

/// Parses all of `text` as a base-10 std::uint64_t: one or more ASCII
/// digits and nothing else — no sign, no whitespace, no suffix. Returns
/// std::nullopt for any other text, and for a value above 2^64 - 1.
std::optional<std::uint64_t> parse_decimal_u64(std::string_view text);

// Fields of the `key=value,...` specs (FLO_QOS, FLO_FAULTS). Every failure
// throws std::invalid_argument whose message starts with the spec's name,
// e.g. "qos spec: bad integer '-1' for 'epoch'".

/// Splits `text` at every `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// `value` as a decimal integer in [0, max], read by parse_decimal_u64 (so
/// no sign and no blanks); `max` is the width of the field it fills.
std::uint64_t spec_integer(
    std::string_view spec, const std::string& key, const std::string& value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// `value` as a floating-point number: all of it, through std::stod.
double spec_number(std::string_view spec, const std::string& key,
                   const std::string& value);

/// A malformed environment knob; what() reads "FLO_X: <reason>".
class KnobError : public std::invalid_argument {
 public:
  KnobError(const std::string& variable, const std::string& reason)
      : std::invalid_argument(variable + ": " + reason) {}
};

/// The one reader of the FLO_* environment knobs: std::nullopt when
/// `variable` is unset or empty, else parse(value). Whatever `parse`
/// throws becomes a KnobError naming the variable.
template <typename Parse>
auto read_knob(const char* variable, Parse parse)
    -> std::optional<decltype(parse(std::string()))> {
  const char* value = std::getenv(variable);
  if (value == nullptr || *value == '\0') return std::nullopt;
  try {
    return parse(std::string(value));
  } catch (const std::exception& err) {
    throw KnobError(variable, err.what());
  }
}

}  // namespace flo::util

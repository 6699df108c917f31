// Strict parsing of integer flags, environment knobs and wire fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace flo::util {

/// Parses all of `text` as a base-10 std::uint64_t: one or more ASCII
/// digits and nothing else — no sign, no whitespace, no suffix. Returns
/// std::nullopt for any other text, and for a value above 2^64 - 1.
std::optional<std::uint64_t> parse_decimal_u64(std::string_view text);

}  // namespace flo::util

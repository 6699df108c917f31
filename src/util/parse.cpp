#include "util/parse.hpp"

#include <charconv>

namespace flo::util {

std::optional<std::uint64_t> parse_decimal_u64(std::string_view text) {
  // from_chars takes no leading whitespace and, for an unsigned type, no
  // sign, so a full-length parse is exactly "digits only".
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace flo::util

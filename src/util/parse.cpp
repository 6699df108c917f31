#include "util/parse.hpp"

#include <charconv>
#include <stdexcept>

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

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::uint64_t spec_integer(std::string_view spec, const std::string& key,
                           const std::string& value, std::uint64_t max) {
  const std::optional<std::uint64_t> v = parse_decimal_u64(value);
  if (!v) {
    throw std::invalid_argument(std::string(spec) + ": bad integer '" +
                                value + "' for '" + key + "'");
  }
  if (*v > max) {
    throw std::invalid_argument(std::string(spec) + ": integer '" + value +
                                "' for '" + key + "' exceeds " +
                                std::to_string(max));
  }
  return *v;
}

double spec_number(std::string_view spec, const std::string& key,
                   const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos == value.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(std::string(spec) + ": bad number '" + value +
                              "' for '" + key + "'");
}

}  // namespace flo::util

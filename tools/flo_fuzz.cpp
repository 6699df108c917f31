// flo_fuzz — property-based differential fuzzer for the whole
// compile -> trace -> simulate stack (DESIGN.md §4f).
//
//   flo_fuzz [--seed N] [--iters N] [--oracle GLOB] [--log FILE.jsonl]
//            [--repro-dir DIR] [--no-shrink] [--huge-every N]
//            [--list-oracles]
//
// Generates seeded random programs and storage systems, checks every
// glob-selected oracle against each case, greedily shrinks failures and
// writes committed-ready `.flo` repros. Failures go to the JSONL log
// (one object per line) when --log is given. Deterministic: the same
// seed + iters + oracle set reproduces the same cases and verdicts.
//
// Exit codes: 0 all oracles held, 1 at least one failure (or a harness
// error), 2 usage (an unknown flag, a count that is not a whole string of
// decimal digits, or a malformed FLO_* knob).
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "testing/harness.hpp"
#include "testing/oracles.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seed N] [--iters N] [--oracle GLOB] [--log FILE.jsonl]"
               " [--repro-dir DIR] [--no-shrink] [--huge-every N]"
               " [--list-oracles]\n";
  return 2;
}

/// A count flag's value: a whole string of decimal digits, or a
/// diagnostic naming the flag and exit 2 (a typo must not become 0).
std::uint64_t count_value(const std::string& flag, const std::string& value) {
  const std::optional<std::uint64_t> v = flo::util::parse_decimal_u64(value);
  if (v) return *v;
  std::cerr << "flo_fuzz: " << flag << ": want a non-negative integer, got '"
            << value << "'\n";
  std::exit(2);
}

/// Accepts both `--key value` and `--key=value` spellings.
bool take_value(const std::string& arg, const std::string& key, int argc,
                char** argv, int& i, std::string& out) {
  if (arg == key) {
    if (i + 1 >= argc) return false;
    out = argv[++i];
    return true;
  }
  if (arg.rfind(key + "=", 0) == 0) {
    out = arg.substr(key.size() + 1);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flo;
  if (!core::check_knobs("flo_fuzz")) return 2;
  testing::FuzzOptions options;
  options.iters = 100;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list-oracles") {
      for (const auto& oracle : testing::all_oracles()) {
        std::cout << oracle.name << (oracle.element_walk ? "" : " [closed-form]")
                  << "\n    " << oracle.description << '\n';
      }
      return 0;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (take_value(arg, "--seed", argc, argv, i, value)) {
      options.seed = count_value("--seed", value);
    } else if (take_value(arg, "--iters", argc, argv, i, value)) {
      options.iters = count_value("--iters", value);
    } else if (take_value(arg, "--oracle", argc, argv, i, value)) {
      options.oracle_glob = value;
    } else if (take_value(arg, "--log", argc, argv, i, value)) {
      options.log_path = value;
    } else if (take_value(arg, "--repro-dir", argc, argv, i, value)) {
      options.repro_dir = value;
    } else if (take_value(arg, "--huge-every", argc, argv, i, value)) {
      options.huge_every = count_value("--huge-every", value);
    } else {
      return usage(argv[0]);
    }
  }

  try {
    const testing::FuzzReport report = testing::run_fuzz(options, &std::cerr);
    std::cout << report.summary() << '\n';
    if (!report.ok()) {
      for (const auto& failure : report.failures) {
        std::cout << "\n=== " << failure.oracle << " (iter "
                  << failure.iteration << ", seed " << failure.case_seed
                  << ")\n"
                  << failure.message << "\n--- shrunk repro";
        if (!failure.repro_path.empty()) {
          std::cout << " (" << failure.repro_path << ")";
        }
        std::cout << " ---\n" << failure.repro;
      }
      return 1;
    }
  } catch (const std::exception& err) {
    std::cerr << "flo_fuzz: " << err.what() << '\n';
    return 1;
  }
  return 0;
}

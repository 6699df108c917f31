// flo_bench — the one bench driver. Lists and runs registered scenarios
// (paper tables/figures, ablations, fault sweep, smoke) by glob filter:
//
//   flo_bench --list                 # what can run
//   flo_bench --filter fig7a         # one scenario
//   flo_bench --filter 'fig7*'       # all eight figures
//   flo_bench --filter smoke --metrics=json
//
// A single scenario's stdout is a pure function of the code:
// results/golden/<name>.<core>.txt pins it for each simulator core, and
// the golden.* ctests check it. With multiple matches a banner separates
// the sections. Metrics (--metrics / FLO_METRICS) and --out exports
// always go to side files, never stdout.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/scenario.hpp"
#include "obs/sink.hpp"
#include "util/json.hpp"

namespace {

using flo::bench::MetricRow;
using flo::bench::ScenarioSpec;

int usage(std::ostream& os, int rc) {
  os << "usage: flo_bench [--list] [--filter GLOB]...\n"
        "                 [--out csv|jsonl] [--out-file PATH]\n"
        "                 [--metrics off|text|json|chrome] [--metrics-out "
        "PATH]\n"
        "\n"
        "  --list         print the scenario registry and exit\n"
        "  --filter GLOB  run scenarios whose name or tag matches (repeat "
        "to union)\n"
        "  --out FMT      export emitted headline numbers as csv or jsonl\n"
        "  --out-file     export path (default flo_bench.out.<fmt>)\n"
        "  --metrics MODE metrics/trace sink; overrides FLO_METRICS\n"
        "  --metrics-out  sink path (default flo_bench.metrics.* / "
        "flo_bench.trace.json)\n";
  return rc;
}

void list_scenarios(std::ostream& os) {
  std::size_t width = 0;
  for (const auto& spec : flo::bench::scenarios()) {
    width = std::max(width, spec.name.size());
  }
  for (const auto& spec : flo::bench::scenarios()) {
    os << "  " << spec.name << std::string(width - spec.name.size(), ' ')
       << "  " << spec.title << " [" << spec.paper << "]";
    os << " (";
    for (std::size_t i = 0; i < spec.tags.size(); ++i) {
      os << (i != 0 ? " " : "") << spec.tags[i];
    }
    os << ")\n";
  }
}

std::string format_value(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void write_rows_csv(std::ostream& os, const std::vector<MetricRow>& rows) {
  os << "scenario,key,value\n";
  for (const auto& row : rows) {
    os << row.scenario << ',' << row.key << ',' << format_value(row.value)
       << '\n';
  }
}

void write_rows_jsonl(std::ostream& os, const std::vector<MetricRow>& rows) {
  for (const auto& row : rows) {
    os << "{\"scenario\":\"" << flo::util::json_escape(row.scenario)
       << "\",\"key\":\"" << flo::util::json_escape(row.key)
       << "\",\"value\":" << format_value(row.value) << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto engine_knobs = [] { flo::bench::engine_options_from_env(); };
  if (!flo::core::check_knobs("bench_common.hpp", engine_knobs)) return 2;
  bool list = false;
  std::vector<std::string> filters;
  std::string out_format, out_file, metrics_out;
  flo::obs::SinkMode metrics = flo::obs::sink_mode_from_env();

  // Matches `--name value` and `--name=value` only; a longer word that
  // merely starts with a flag's name (`--filterzzz`) is not that flag.
  const auto flag_value = [&](int& i, const std::string& arg,
                              const std::string& name, std::string& value) {
    if (arg.compare(0, name.size(), name) != 0) return false;
    if (arg.size() > name.size()) {
      if (arg[name.size()] != '=') return false;
      value = arg.substr(name.size() + 1);
      return true;
    }
    if (i + 1 >= argc) {
      std::cerr << "flo_bench: " << name << " needs a value\n";
      std::exit(usage(std::cerr, 2));
    }
    value = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (flag_value(i, arg, "--filter", value)) {
      filters.push_back(value);
    } else if (flag_value(i, arg, "--out-file", value)) {
      out_file = value;
    } else if (flag_value(i, arg, "--out", value)) {
      out_format = value;
      if (out_format != "csv" && out_format != "jsonl") {
        std::cerr << "flo_bench: --out must be csv or jsonl\n";
        return 2;
      }
    } else if (flag_value(i, arg, "--metrics-out", value)) {
      metrics_out = value;
    } else if (flag_value(i, arg, "--metrics", value)) {
      metrics = flo::obs::parse_sink_mode(value);
      if (metrics == flo::obs::SinkMode::kOff && value != "off") {
        std::cerr << "flo_bench: unknown --metrics mode '" << value << "'\n";
        return 2;
      }
    } else {
      std::cerr << "flo_bench: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (list) {
    list_scenarios(std::cout);
    return 0;
  }
  if (filters.empty()) {
    std::cerr << "flo_bench: nothing to do — pass --filter or --list\n\n"
                 "registered scenarios:\n";
    list_scenarios(std::cerr);
    return 2;
  }

  // Union the filters in registry order, without duplicates: the specs
  // live in one vector, so pointer order is registry order.
  std::vector<const ScenarioSpec*> selected;
  for (const auto& filter : filters) {
    const auto matched = flo::bench::match_scenarios(filter);
    selected.insert(selected.end(), matched.begin(), matched.end());
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  if (selected.empty()) {
    std::cerr << "flo_bench: no scenario matches";
    for (const auto& filter : filters) std::cerr << " '" << filter << "'";
    std::cerr << " (see --list)\n";
    return 1;
  }

  if (metrics != flo::obs::SinkMode::kOff) flo::obs::set_enabled(true);

  flo::bench::ScenarioContext ctx(std::cout);
  int rc = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const ScenarioSpec& spec = *selected[i];
    if (selected.size() > 1) {
      // Banners appear only between sections of a multi-run, so a single
      // scenario prints exactly its golden.
      if (i != 0) std::cout << '\n';
      std::cout << "==== " << spec.name << " — " << spec.title << " ====\n\n";
    }
    ctx.set_scenario(spec.name);
    const int scenario_rc = spec.run(ctx);
    rc = std::max(rc, scenario_rc);
  }

  if (!out_format.empty()) {
    if (out_file.empty()) out_file = "flo_bench.out." + out_format;
    std::ofstream os(out_file, std::ios::trunc);
    if (!os) {
      std::cerr << "flo_bench: cannot write " << out_file << '\n';
      return 1;
    }
    if (out_format == "csv") {
      write_rows_csv(os, ctx.rows());
    } else {
      write_rows_jsonl(os, ctx.rows());
    }
    std::cerr << "rows (" << out_format << "): " << out_file << '\n';
  }

  if (metrics != flo::obs::SinkMode::kOff) {
    if (metrics_out.empty()) {
      metrics_out = flo::obs::default_sink_path(metrics, "flo_bench");
    }
    flo::obs::flush_to_file(metrics, metrics_out);
    std::cerr << "metrics (" << flo::obs::sink_mode_name(metrics)
              << "): " << metrics_out << '\n';
  }
  return rc;
}

#include "obs/sink.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/parse.hpp"

namespace flo::obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// Compact, deterministic number rendering: integral values print without
/// a decimal point (counters stay integers in JSON), everything else gets
/// shortest-ish %.9g (enough digits for microsecond timestamps).
std::string number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

using util::json_escape;

void write_args_json(std::ostream& os, const SpanArgs& args) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  os << '}';
}

}  // namespace

SinkMode parse_sink_mode(const std::string& name) {
  if (name == "text") return SinkMode::kText;
  if (name == "json") return SinkMode::kJson;
  if (name == "chrome") return SinkMode::kChrome;
  return SinkMode::kOff;
}

const char* sink_mode_name(SinkMode mode) {
  switch (mode) {
    case SinkMode::kOff:
      return "off";
    case SinkMode::kText:
      return "text";
    case SinkMode::kJson:
      return "json";
    case SinkMode::kChrome:
      return "chrome";
  }
  return "?";
}

SinkMode sink_mode_from_env() {
  static const SinkMode mode =
      util::read_knob("FLO_METRICS", [](const std::string& name) {
        const SinkMode parsed = parse_sink_mode(name);
        if (parsed == SinkMode::kOff && name != "off") {
          throw std::invalid_argument("unknown metrics mode '" + name +
                                      "' (expected off, text, json or chrome)");
        }
        return parsed;
      }).value_or(SinkMode::kOff);
  return mode;
}

void write_text(std::ostream& os, const std::vector<MetricSample>& metrics,
                const std::vector<SpanEvent>& spans) {
  os << "# metrics\n";
  for (const auto& m : metrics) {
    os << m.name << " (" << kind_name(m.kind) << ")";
    if (m.kind == MetricKind::kHistogram) {
      os << " count=" << m.count << " sum=" << number(m.sum)
         << " min=" << number(m.min) << " max=" << number(m.max);
    } else {
      os << " = " << number(m.value);
    }
    os << '\n';
  }
  // Per-name span summary: count and total duration (seconds).
  std::map<std::string, std::pair<std::uint64_t, double>> by_name;
  for (const auto& s : spans) {
    auto& [count, total] = by_name[s.name];
    ++count;
    total += s.duration_us * 1e-6;
  }
  os << "# spans\n";
  for (const auto& [name, agg] : by_name) {
    os << name << " count=" << agg.first
       << " total=" << number(agg.second) << "s\n";
  }
}

void write_jsonl(std::ostream& os, const std::vector<MetricSample>& metrics,
                 const std::vector<SpanEvent>& spans) {
  for (const auto& m : metrics) {
    os << "{\"type\":\"" << kind_name(m.kind) << "\",\"name\":\""
       << json_escape(m.name) << '"';
    if (m.kind == MetricKind::kHistogram) {
      os << ",\"count\":" << m.count << ",\"sum\":" << number(m.sum)
         << ",\"min\":" << number(m.min) << ",\"max\":" << number(m.max);
    } else {
      os << ",\"value\":" << number(m.value);
    }
    os << "}\n";
  }
  for (const auto& s : spans) {
    os << "{\"type\":\"span\",\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"" << json_escape(s.category) << "\",\"tid\":" << s.tid
       << ",\"ts\":" << number(s.start_us) << ",\"dur\":"
       << number(s.duration_us) << ",\"clock\":\""
       << (s.virtual_time ? "virtual" : "wall") << "\",\"args\":";
    write_args_json(os, s.args);
    os << "}\n";
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<MetricSample>& metrics,
                        const std::vector<SpanEvent>& spans) {
  os << "{\"traceEvents\":[\n";
  // Process name metadata so the two timelines are labeled in the viewer.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"wall clock\"}},\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"virtual clock (simulation)\"}}";
  for (const auto& s : spans) {
    os << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(s.category) << "\",\"ph\":\"X\",\"pid\":"
       << (s.virtual_time ? 2 : 1) << ",\"tid\":" << s.tid
       << ",\"ts\":" << number(s.start_us) << ",\"dur\":"
       << number(s.duration_us) << ",\"args\":";
    write_args_json(os, s.args);
    os << '}';
  }
  // Final counter snapshot as one metadata event, so the numbers travel
  // with the trace file.
  os << ",\n{\"name\":\"metrics\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{";
  bool first = true;
  for (const auto& m : metrics) {
    if (m.kind == MetricKind::kHistogram) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(m.name) << "\":" << number(m.value);
  }
  os << "}}\n]}\n";
}

std::string default_sink_path(SinkMode mode, const std::string& stem) {
  switch (mode) {
    case SinkMode::kOff:
      return "";
    case SinkMode::kText:
      return stem + ".metrics.txt";
    case SinkMode::kJson:
      return stem + ".metrics.jsonl";
    case SinkMode::kChrome:
      return stem + ".trace.json";
  }
  return "";
}

std::string flush_to_file(SinkMode mode, const std::string& path) {
  if (mode == SinkMode::kOff) return "";
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    throw std::runtime_error("obs: cannot write metrics file " + path);
  }
  const auto metrics = registry().snapshot();
  const auto spans = recorder().snapshot();
  switch (mode) {
    case SinkMode::kText:
      write_text(os, metrics, spans);
      break;
    case SinkMode::kJson:
      write_jsonl(os, metrics, spans);
      break;
    case SinkMode::kChrome:
      write_chrome_trace(os, metrics, spans);
      break;
    case SinkMode::kOff:
      break;
  }
  return path;
}

}  // namespace flo::obs

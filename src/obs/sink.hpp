// Pluggable exporters for the obs layer: human-readable text, JSON Lines
// and Chrome trace-event format (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// The writers are pure functions over snapshots so tests can golden-file
// their output byte-for-byte; the flush_* helpers bind them to the global
// registry/recorder and to files for the CLI drivers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace flo::obs {

/// Export format selected by --metrics= / FLO_METRICS.
enum class SinkMode { kOff, kText, kJson, kChrome };

/// Parses "off" / "text" / "json" / "chrome"; empty or unknown → kOff.
SinkMode parse_sink_mode(const std::string& name);
const char* sink_mode_name(SinkMode mode);

/// FLO_METRICS environment variable → SinkMode (kOff when unset or
/// empty), read once through util::read_knob. Any value but off, text,
/// json or chrome throws util::KnobError, as `--metrics` rejects it.
SinkMode sink_mode_from_env();

/// Aligned human-readable dump: one metric per line, histograms with
/// count/sum/min/max, then a span summary (count and total per name).
void write_text(std::ostream& os, const std::vector<MetricSample>& metrics,
                const std::vector<SpanEvent>& spans);

/// JSON Lines: one object per metric then one per span —
///   {"type":"counter","name":"engine.cells_total","value":32}
///   {"type":"span","name":"engine.cell","cat":"engine","tid":0,
///    "ts":12.5,"dur":100.0,"clock":"wall","args":{"label":"bt"}}
/// Metrics are name-sorted and spans (start, tid, name)-sorted, so output
/// under deterministic clocks is byte-stable.
void write_jsonl(std::ostream& os, const std::vector<MetricSample>& metrics,
                 const std::vector<SpanEvent>& spans);

/// Chrome trace-event JSON: every span is a "ph":"X" complete event; wall
/// spans live under pid 1 ("wall clock"), virtual-clock simulator spans
/// under pid 2 ("virtual clock"); counters/gauges are appended as a
/// process-level metadata event so one file carries the whole story.
void write_chrome_trace(std::ostream& os,
                        const std::vector<MetricSample>& metrics,
                        const std::vector<SpanEvent>& spans);

/// Serializes the global registry + recorder in `mode` to `path`
/// (overwrites). kOff is a no-op. Returns the path written, empty string
/// for kOff. Throws std::runtime_error if the file cannot be written.
std::string flush_to_file(SinkMode mode, const std::string& path);

/// Default output path for a mode, derived from a stem: `<stem>.metrics.txt`
/// (text), `<stem>.metrics.jsonl` (json), `<stem>.trace.json` (chrome).
std::string default_sink_path(SinkMode mode, const std::string& stem);

}  // namespace flo::obs

// flo_serve — the layout-as-a-service compile daemon (DESIGN.md §4h).
//
//   flo_serve --socket PATH | --stdio
//             [--workers N] [--queue-depth N]
//             [--rate R] [--burst B] [--deadline-ms D]
//             [--cache-capacity N] [--cache-journal PATH]
//             [--max-frame BYTES] [--io-timeout-ms N]
//             [--metrics off|text|json|chrome] [--metrics-out PATH]
//
// Serves framed flo-req-v1 requests (src/service/protocol.hpp) over a
// Unix socket (one reader thread per connection) or stdin/stdout. Every
// flag has an FLO_SERVE_* environment default (FLO_SERVE_WORKERS,
// FLO_SERVE_QUEUE_DEPTH, FLO_SERVE_RATE, FLO_SERVE_BURST,
// FLO_SERVE_DEADLINE_MS, FLO_SERVE_CACHE_CAPACITY,
// FLO_SERVE_CACHE_JOURNAL, FLO_SERVE_MAX_FRAME, FLO_SERVE_IO_TIMEOUT_MS);
// the command line wins. A malformed value in either place, or in one of
// the library's FLO_* knobs, is a configuration bug, not a preference —
// the daemon prints a `flo_serve: <source>: message` diagnostic and exits
// 2 rather than starting with a silently-wrong limit.
//
// SIGINT/SIGTERM request a graceful stop: in-queue requests finish, the
// socket file is removed, metrics flush, exit 0. SIGPIPE is ignored —
// a client that disappears mid-response costs a counter, not the daemon.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "service/server.hpp"
#include "util/parse.hpp"

namespace {

flo::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // one atomic store
}

/// Configuration error: `source` is the flag or env var at fault. Printed
/// as `flo_serve: <source>: <message>`, exit 2.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(const std::string& source, const std::string& message)
      : std::runtime_error(source + ": " + message) {}
};

std::uint64_t parse_u64(const std::string& source, const std::string& value) {
  if (value.empty()) throw ConfigError(source, "empty value");
  const std::optional<std::uint64_t> v = flo::util::parse_decimal_u64(value);
  if (!v) throw ConfigError(source, "malformed integer '" + value + "'");
  return *v;
}

double parse_nonneg(const std::string& source, const std::string& value) {
  if (value.empty()) throw ConfigError(source, "empty value");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size() || !(v >= 0) ||
      v > 1e18) {
    throw ConfigError(source, "malformed number '" + value + "'");
  }
  return v;
}

const char* env_or_null(const char* name) { return std::getenv(name); }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --socket PATH | --stdio\n"
               "  [--workers N] [--queue-depth N] [--rate R] [--burst B]\n"
               "  [--deadline-ms D] [--cache-capacity N]"
               " [--cache-journal PATH]\n"
               "  [--max-frame BYTES] [--io-timeout-ms N]\n"
               "  [--metrics off|text|json|chrome] [--metrics-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flo;
  // A malformed FLO_* knob exits 2 here, not at the first compile.
  if (!core::check_knobs("flo_serve")) return 2;
  std::signal(SIGPIPE, SIG_IGN);

  std::string socket_path;
  bool stdio = false;
  service::ServerConfig config;
  obs::SinkMode metrics = obs::sink_mode_from_env();
  std::string metrics_out;

  try {
    // Environment defaults first; flags override below.
    struct EnvU64 { const char* name; std::size_t* target; };
    for (const EnvU64& e : {
             EnvU64{"FLO_SERVE_WORKERS", &config.workers},
             EnvU64{"FLO_SERVE_QUEUE_DEPTH", &config.queue_depth},
             EnvU64{"FLO_SERVE_CACHE_CAPACITY", &config.cache_capacity},
             EnvU64{"FLO_SERVE_MAX_FRAME", &config.max_frame}}) {
      if (const char* v = env_or_null(e.name)) {
        *e.target = static_cast<std::size_t>(parse_u64(e.name, v));
      }
    }
    if (const char* v = env_or_null("FLO_SERVE_RATE")) {
      config.tenant_rate = parse_nonneg("FLO_SERVE_RATE", v);
    }
    if (const char* v = env_or_null("FLO_SERVE_BURST")) {
      config.tenant_burst = parse_nonneg("FLO_SERVE_BURST", v);
    }
    if (const char* v = env_or_null("FLO_SERVE_DEADLINE_MS")) {
      config.default_deadline_ms = parse_nonneg("FLO_SERVE_DEADLINE_MS", v);
    }
    if (const char* v = env_or_null("FLO_SERVE_IO_TIMEOUT_MS")) {
      config.io_timeout_ms =
          static_cast<int>(parse_u64("FLO_SERVE_IO_TIMEOUT_MS", v));
    }
    if (const char* v = env_or_null("FLO_SERVE_CACHE_JOURNAL")) {
      config.cache_journal = v;
    }

    for (int i = 1; i < argc; ++i) {
      const std::string raw = argv[i];
      // Both --flag value and --flag=value spellings are accepted.
      const std::size_t eq = raw.find('=');
      const std::string arg = raw.substr(0, eq);
      const bool has_inline = eq != std::string::npos;
      const std::string inline_value =
          has_inline ? raw.substr(eq + 1) : std::string();
      const auto value = [&](const char* flag) -> std::string {
        if (has_inline) return inline_value;
        if (i + 1 >= argc) throw ConfigError(flag, "missing value");
        return argv[++i];
      };
      if (arg == "--socket") socket_path = value("--socket");
      else if (arg == "--stdio") stdio = true;
      else if (arg == "--workers")
        config.workers =
            static_cast<std::size_t>(parse_u64("--workers", value(arg.c_str())));
      else if (arg == "--queue-depth")
        config.queue_depth = static_cast<std::size_t>(
            parse_u64("--queue-depth", value(arg.c_str())));
      else if (arg == "--rate")
        config.tenant_rate = parse_nonneg("--rate", value(arg.c_str()));
      else if (arg == "--burst")
        config.tenant_burst = parse_nonneg("--burst", value(arg.c_str()));
      else if (arg == "--deadline-ms")
        config.default_deadline_ms =
            parse_nonneg("--deadline-ms", value(arg.c_str()));
      else if (arg == "--cache-capacity")
        config.cache_capacity = static_cast<std::size_t>(
            parse_u64("--cache-capacity", value(arg.c_str())));
      else if (arg == "--cache-journal")
        config.cache_journal = value(arg.c_str());
      else if (arg == "--max-frame")
        config.max_frame = static_cast<std::size_t>(
            parse_u64("--max-frame", value(arg.c_str())));
      else if (arg == "--io-timeout-ms")
        config.io_timeout_ms =
            static_cast<int>(parse_u64("--io-timeout-ms", value(arg.c_str())));
      else if (arg == "--metrics") {
        const std::string mode = value(arg.c_str());
        metrics = obs::parse_sink_mode(mode);
        if (metrics == obs::SinkMode::kOff && mode != "off") {
          throw ConfigError("--metrics", "unknown mode '" + mode + "'");
        }
      } else if (arg == "--metrics-out") {
        metrics_out = value(arg.c_str());
      } else {
        std::cerr << "flo_serve: unknown argument '" << arg << "'\n";
        return usage(argv[0]);
      }
    }

    if (stdio != socket_path.empty()) {
      // Exactly one transport must be selected.
      std::cerr << "flo_serve: pass exactly one of --socket PATH or --stdio\n";
      return usage(argv[0]);
    }
    if (config.queue_depth == 0) {
      throw ConfigError("--queue-depth", "must be at least 1");
    }

  } catch (const ConfigError& e) {
    std::cerr << "flo_serve: " << e.what() << "\n";
    return 2;
  }

  if (metrics != obs::SinkMode::kOff) obs::set_enabled(true);

  try {
    service::Server server(std::move(config));
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::cerr << "flo_serve: serving on "
              << (stdio ? std::string("stdio") : socket_path) << " (workers="
              << server.config().workers
              << " queue=" << server.config().queue_depth
              << "), cache journal replayed " << server.journal_replayed()
              << " entries\n";
    if (stdio) {
      server.serve_fd(0, 1);
    } else {
      server.serve_unix(socket_path);
    }
    server.stop();
    g_server = nullptr;
    if (metrics != obs::SinkMode::kOff) {
      const std::string path = metrics_out.empty()
                                   ? obs::default_sink_path(metrics, "flo_serve")
                                   : metrics_out;
      obs::flush_to_file(metrics, path);
      std::cerr << "flo_serve: metrics written to " << path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "flo_serve: fatal: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "flo_serve: clean shutdown\n";
  return 0;
}

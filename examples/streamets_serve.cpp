// streamets_serve — run a query plan as a live network server: parse an
// experiment file (plan + run statements; feed lines, if any, are ignored —
// input comes from TCP), listen for wire-protocol connections (see
// src/net/wire_format.h), and execute the query against whatever the
// network delivers until the horizon passes.
//
//   $ ./streamets_serve --listen 127.0.0.1:7687 query.plan
//   $ ./streamets_serve --listen 127.0.0.1:0 --port-file /tmp/port
//         --duration 5s --metrics /tmp/serve.metrics.json query.plan
//
// Pair it with streamets_feed, which replays the same experiment file's
// feed statements over TCP.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/flag_help.h"
#include "common/strings.h"
#include "net/ingest_server.h"
#include "net/served_engine.h"
#include "obs/metrics_registry.h"
#include "recovery/recovery_manager.h"
#include "sim/experiment_spec.h"

namespace {

const std::vector<dsms::FlagHelp> kFlags = {
    {"--listen", "HOST:PORT",
     "listen address; port 0 picks an ephemeral port"},
    {"--port-file", "PATH",
     "write the bound port as one decimal line (for scripted callers)"},
    {"--duration", "DUR",
     "serve horizon, e.g. 5s (overrides the file's run horizon)"},
    {"--frame-clock", "",
     "advance virtual time by frame arrival hints instead of wall time "
     "(deterministic replay mode)"},
    {"--wall-limit", "DUR",
     "abort if this much real time passes before the horizon (default "
     "2x duration in wall mode)"},
    {"--metrics", "PATH", "write the metrics snapshot as one JSON object"},
    {"--trace", "PATH",
     "write a Chrome trace of the run (overrides the file's trace line)"},
    {"--wal-dir", "PATH",
     "override the recovery directory of the file's wal statement"},
    {"--no-crash", "",
     "ignore the file's `crash at=` statement (the restarted run of a "
     "kill-and-recover exercise)"},
    {"--max-connections", "N",
     "admission control: reject connection N+1 with a reason frame "
     "(default 0 = unlimited)"},
    {"--memory-budget", "BYTES",
     "global ingest budget (decode buffers + pending + outboxes); at or "
     "over it new connections are rejected (default 0 = unbudgeted)"},
    {"--handshake-deadline", "DUR",
     "close accepted connections that send nothing for DUR (half-open "
     "peers; default 0 = only the idle timeout applies)"},
    {"--min-rate", "BYTES_PER_SEC",
     "slow-peer floor: connections under it degrade shed -> quarantine -> "
     "close (default 0 = off)"},
    {"--help", "", "show this message and exit"},
};

/// Signal-to-Stop bridge: SIGTERM/SIGINT make Run() return cleanly so the
/// epilogue can flush the WAL and take a final checkpoint. Stop() only sets
/// a volatile flag, so this is async-signal-safe.
dsms::IngestServer* g_server = nullptr;

void HandleShutdownSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}

bool SplitHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = addr.substr(0, colon);
  char* end = nullptr;
  long p = std::strtol(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsms;

  std::string input;
  std::string listen = "127.0.0.1:0";
  std::string port_file;
  std::string metrics_path;
  std::string trace_path;
  std::string wal_dir;
  Duration duration = 0;
  Duration wall_limit = 0;
  bool frame_clock = false;
  bool no_crash = false;
  int max_connections = 0;
  uint64_t memory_budget = 0;
  Duration handshake_deadline = 0;
  uint64_t min_rate = 0;

  auto value_of = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0) {
      listen = value_of(&i);
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = value_of(&i);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = value_of(&i);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = value_of(&i);
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      if (!ParseDuration(value_of(&i), &duration).ok() || duration <= 0) {
        std::fprintf(stderr, "bad --duration value\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--wall-limit") == 0) {
      if (!ParseDuration(value_of(&i), &wall_limit).ok() ||
          wall_limit <= 0) {
        std::fprintf(stderr, "bad --wall-limit value\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--frame-clock") == 0) {
      frame_clock = true;
    } else if (std::strcmp(argv[i], "--wal-dir") == 0) {
      wal_dir = value_of(&i);
    } else if (std::strcmp(argv[i], "--no-crash") == 0) {
      no_crash = true;
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      max_connections =
          static_cast<int>(std::strtol(value_of(&i), nullptr, 10));
      if (max_connections < 0) {
        std::fprintf(stderr, "bad --max-connections value\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--memory-budget") == 0) {
      memory_budget = static_cast<uint64_t>(
          std::strtoull(value_of(&i), nullptr, 10));
    } else if (std::strcmp(argv[i], "--handshake-deadline") == 0) {
      if (!ParseDuration(value_of(&i), &handshake_deadline).ok() ||
          handshake_deadline <= 0) {
        std::fprintf(stderr, "bad --handshake-deadline value\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--min-rate") == 0) {
      min_rate = static_cast<uint64_t>(
          std::strtoull(value_of(&i), nullptr, 10));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintFlagHelp(stdout, argv[0],
                    "serve a query plan over the wire-protocol ingest port",
                    kFlags);
      return 0;
    } else if (argv[i][0] != '-' && input.empty()) {
      input = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (input.empty()) {
    std::fprintf(stderr, "usage: %s [flags] <experiment-file>; try --help\n",
                 argv[0]);
    return 2;
  }

  std::ifstream file(input);
  if (!file.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", input.c_str());
    return 1;
  }
  std::ostringstream contents;
  contents << file.rdbuf();

  // Feeds are optional here: the network, not the simulator, produces
  // input. A file shared with streamets_feed parses cleanly on both ends.
  Result<Experiment> experiment =
      ParseExperiment(contents.str(), /*require_feeds=*/false);
  if (!experiment.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  if (!trace_path.empty()) experiment->trace.path = trace_path;

  IngestServerOptions options;
  if (!SplitHostPort(listen, &options.host, &options.port)) {
    std::fprintf(stderr, "bad --listen address '%s'\n", listen.c_str());
    return 2;
  }
  options.clock_mode = frame_clock ? IngestClock::Mode::kFrameDriven
                                   : IngestClock::Mode::kWallClock;
  options.max_connections = max_connections;
  options.ingest_memory_budget = memory_budget;
  options.handshake_deadline = handshake_deadline;
  options.min_bytes_per_second = min_rate;
  options.horizon =
      duration > 0 ? duration : experiment->run.horizon;
  if (!no_crash) options.crash_at = experiment->recovery.crash_at;
  if (wall_limit > 0) {
    options.wall_limit = wall_limit;
  } else if (!frame_clock) {
    // Wall mode ties virtual to real time, so 2x horizon is a generous
    // hang guard that still cannot cut a healthy run short.
    options.wall_limit = 2 * options.horizon + 5 * kSecond;
  }

  if (!wal_dir.empty()) experiment->recovery.dir = wal_dir;

  Result<std::unique_ptr<ServedEngine>> assembled =
      ServedEngine::Assemble(&*experiment, options);
  if (!assembled.ok()) {
    std::fprintf(stderr, "setup error: %s\n",
                 assembled.status().ToString().c_str());
    return 1;
  }
  ServedEngine& engine = **assembled;
  IngestServer& server = *engine.server();
  RecoveryManager* recovery = engine.recovery();
  Status status = engine.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "start error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (recovery != nullptr && recovery->recovered()) {
    std::printf("recovered to t=%.3f s (virtual): %llu WAL frames "
                "replayed past the checkpoint\n",
                DurationToSeconds(engine.clock().now()),
                static_cast<unsigned long long>(
                    recovery->replayed_frames()));
  }

  g_server = &server;
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  std::printf("listening on %s:%u (%s clock), horizon %.3f s\n",
              options.host.c_str(), server.port(),
              frame_clock ? "frame-driven" : "wall",
              DurationToSeconds(engine.options().horizon));
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    if (!pf) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    pf << server.port() << "\n";
  }

  status = engine.Run();
  g_server = nullptr;
  if (status.code() == StatusCode::kAborted) {
    // Scheduled chaos crash: die the way SIGKILL would — no WAL flush, no
    // final checkpoint, no stdio teardown. Recovery must cope with exactly
    // this state.
    std::fprintf(stderr, "crash: %s\n", status.ToString().c_str());
    std::_Exit(137);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "serve error: %s\n", status.ToString().c_str());
    return 1;
  }
  // Graceful shutdown epilogue (horizon reached or SIGTERM/SIGINT):
  // persist everything so a restart resumes without replay loss.
  status = engine.Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "recovery flush failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  const ExperimentReport report = engine.Report();
  std::printf("served to t=%.3f s (virtual); %llu connections, %llu "
              "frames, %llu bytes, %llu decode errors\n",
              DurationToSeconds(report.end_time),
              static_cast<unsigned long long>(
                  server.connections_accepted()),
              static_cast<unsigned long long>(server.frames_ingested()),
              static_cast<unsigned long long>(server.bytes_received()),
              static_cast<unsigned long long>(server.decode_errors()));
  for (const SinkReport& sink : report.sinks) {
    std::printf("sink %-12s tuples=%-8llu mean_latency=%10.4f ms  "
                "p99=%10.4f ms\n",
                sink.name.c_str(),
                static_cast<unsigned long long>(sink.tuples),
                sink.mean_latency_ms, sink.p99_latency_ms);
  }
  std::printf("on-demand ETS: %llu; lease ETS: %llu; order violations: "
              "%llu\n",
              static_cast<unsigned long long>(report.ets_generated),
              static_cast<unsigned long long>(report.lease_expired_ets),
              static_cast<unsigned long long>(
                  report.buffer_order_violations));
  std::printf("%s", report.operator_stats.c_str());

  if (engine.tracer() != nullptr) {
    std::ofstream out(experiment->trace.path);
    if (out) {
      engine.tracer()->WriteChromeTrace(out);
      std::printf("wrote execution trace to %s\n",
                  experiment->trace.path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   experiment->trace.path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    MetricsRegistry registry;
    report.PublishTo(&registry);
    server.PublishTo(&registry);
    if (recovery != nullptr) recovery->PublishTo(&registry);
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   metrics_path.c_str());
      return 1;
    }
    registry.PrintJson(out);
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  return 0;
}

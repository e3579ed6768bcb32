#ifndef DSMS_TESTS_LOOPBACK_HARNESS_H_
#define DSMS_TESTS_LOOPBACK_HARNESS_H_

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/tuple.h"
#include "net/feed_schedule.h"
#include "net/ingest_server.h"
#include "net/served_engine.h"
#include "operators/sink.h"
#include "sim/experiment_spec.h"

namespace dsms {
namespace test {

/// The engine streamets_serve runs, served on a background thread: parse
/// the plan (feeds optional), patch the server options, assemble through
/// ServedEngine, serve. Every sink collects its tuples. The options start
/// as a frame-driven clock, the plan's run horizon and a 60 s wall-clock
/// hang guard (tests finish long before it); `patch` may change any of
/// them. A non-empty `wal_dir` replaces the plan's `wal dir=`, as
/// streamets_serve --wal-dir does.
struct LoopbackHarness {
  explicit LoopbackHarness(
      const std::string& text,
      const std::function<void(IngestServerOptions*)>& patch = {},
      const std::string& wal_dir = "") {
    Result<Experiment> parsed = ParseExperiment(text, /*require_feeds=*/false);
    DSMS_CHECK_OK(parsed.status());
    experiment = std::make_unique<Experiment>(std::move(*parsed));
    if (!wal_dir.empty()) experiment->recovery.dir = wal_dir;
    for (Sink* sink : experiment->plan.graph->sinks()) sink->set_collect(true);

    IngestServerOptions options;
    options.clock_mode = IngestClock::Mode::kFrameDriven;
    options.horizon = experiment->run.horizon;
    options.wall_limit = 60 * kSecond;
    if (patch) patch(&options);
    Result<std::unique_ptr<ServedEngine>> assembled =
        ServedEngine::Assemble(experiment.get(), options);
    DSMS_CHECK_OK(assembled.status());
    engine = std::move(*assembled);
    graph = engine->graph();
    executor = engine->executor();
    server = engine->server();
    recovery = engine->recovery();
  }

  /// Start (binds, replays a recovered WAL tail), then Run on a thread.
  void Serve() {
    ASSERT_TRUE(engine->Start().ok());
    ServeStarted();
  }
  /// Run on a thread, for a test that called engine->Start() itself.
  void ServeStarted() {
    thread = std::thread([this] { run_status = engine->Run(); });
  }
  /// Waits for Run and returns its status.
  Status Join() {
    if (!thread.joinable()) return InternalError("server never started");
    thread.join();
    return run_status;
  }

  Sink* sink() { return graph->sinks().front(); }

  std::unique_ptr<Experiment> experiment;
  std::unique_ptr<ServedEngine> engine;
  QueryGraph* graph = nullptr;
  Executor* executor = nullptr;
  IngestServer* server = nullptr;
  /// Null unless the plan has a `wal` statement.
  RecoveryManager* recovery = nullptr;
  std::thread thread;
  Status run_status;
};

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// An empty path `dsms_<name>` under the test temp directory (anything a
/// previous run left there is removed).
inline std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dsms_" + name;
  std::string cleanup = "rm -rf '" + dir + "'";
  DSMS_CHECK(std::system(cleanup.c_str()) == 0);
  return dir;
}

/// The frames streamets_feed would send for the feeds of `text`.
inline std::vector<ScheduledFrame> BuildSchedule(const std::string& text) {
  Result<Experiment> experiment = ParseExperiment(text);
  DSMS_CHECK(experiment.ok());
  Result<std::vector<ScheduledFrame>> schedule =
      BuildFeedSchedule(*experiment, experiment->run.horizon);
  DSMS_CHECK(schedule.ok());
  return *std::move(schedule);
}

inline void ExpectSameTuples(const std::vector<Tuple>& want,
                             const std::vector<Tuple>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(want[i].kind(), got[i].kind());
    ASSERT_EQ(want[i].has_timestamp(), got[i].has_timestamp());
    if (want[i].has_timestamp()) {
      EXPECT_EQ(want[i].timestamp(), got[i].timestamp());
    }
    ASSERT_EQ(want[i].num_values(), got[i].num_values());
    for (int v = 0; v < want[i].num_values(); ++v) {
      EXPECT_EQ(want[i].values()[v], got[i].values()[v]) << "value " << v;
    }
  }
}

}  // namespace test
}  // namespace dsms

#endif  // DSMS_TESTS_LOOPBACK_HARNESS_H_

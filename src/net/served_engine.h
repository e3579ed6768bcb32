#ifndef DSMS_NET_SERVED_ENGINE_H_
#define DSMS_NET_SERVED_ENGINE_H_

#include <memory>

#include "common/clock.h"
#include "common/status.h"
#include "exec/executor.h"
#include "net/ingest_server.h"
#include "obs/tracer.h"
#include "recovery/recovery_manager.h"
#include "sim/experiment_spec.h"

namespace dsms {

/// The engine stack a live server runs for one parsed experiment:
/// examples/streamets_serve and the loopback tests build it here, and no
/// other code in src/, examples/ or tests/ does. Assemble() takes the
/// phases in the order a restore needs (docs/recovery.md, "Restart and the
/// resume handshake"):
///
///   1. the clock and, with a trace path, the tracer;
///   2. the buffer bound (`run buffer_cap=`) and the state store (`state`):
///      the store exists before RestoreGraph, because the restored manifest
///      and the spilled-block descriptors claim block files against it;
///   3. with a `wal` statement, RecoveryManager Open and RestoreGraph:
///      checkpointed buffer contents land before the executor constructor
///      scans them to seed its ready queue;
///   4. the executor, from MakeExecutor, always in the deterministic shard
///      mode (checkpoint blobs encode a deterministic schedule position);
///   5. RestoreExecutor and AttachSinks;
///   6. after a restore, the horizon shrinks to what is left of it past the
///      restored clock;
///   7. the IngestServer, with the tracer, the violation policy, the
///      recovery manager and the restored net state.
///
/// Start() binds and replays the recovered WAL tail, Run() serves, and
/// Shutdown() is the graceful epilogue.
class ServedEngine {
 public:
  /// `experiment` is not owned and must outlive the engine; its recovery
  /// directory is experiment->recovery.dir. `options` are used as given
  /// (`horizon` counts from the clock at Run) apart from step 6.
  static Result<std::unique_ptr<ServedEngine>> Assemble(
      Experiment* experiment, IngestServerOptions options);

  ServedEngine(const ServedEngine&) = delete;
  ServedEngine& operator=(const ServedEngine&) = delete;

  /// Binds the listen socket and, after a restore, replays the recovered
  /// WAL tail through the ingest path.
  Status Start();
  /// Serves until the horizon (IngestServer::Run).
  Status Run() { return server_->Run(); }
  /// Graceful-shutdown epilogue (horizon reached or Stop): a final
  /// checkpoint, whose failure is logged and not returned, then WAL and
  /// sink flushes. A no-op without a `wal` statement.
  Status Shutdown();
  /// The run's report, read from the engine (CollectExperimentReport).
  ExperimentReport Report() const;

  QueryGraph* graph() const { return experiment_->plan.graph.get(); }
  VirtualClock& clock() { return clock_; }
  Executor* executor() const { return executor_.get(); }
  IngestServer* server() const { return server_.get(); }
  /// Null without a `wal` statement.
  RecoveryManager* recovery() const { return recovery_.get(); }
  /// Null without a trace path.
  Tracer* tracer() const { return tracer_.get(); }
  /// The options the server runs with (horizon after step 6).
  const IngestServerOptions& options() const { return options_; }

 private:
  ServedEngine(Experiment* experiment, IngestServerOptions options);
  Status AssembleStack();

  Experiment* experiment_;
  IngestServerOptions options_;
  VirtualClock clock_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<IngestServer> server_;
};

}  // namespace dsms

#endif  // DSMS_NET_SERVED_ENGINE_H_

#include "net/served_engine.h"

#include <utility>

#include "common/logging.h"

namespace dsms {

ServedEngine::ServedEngine(Experiment* experiment, IngestServerOptions options)
    : experiment_(experiment), options_(std::move(options)) {}

Result<std::unique_ptr<ServedEngine>> ServedEngine::Assemble(
    Experiment* experiment, IngestServerOptions options) {
  std::unique_ptr<ServedEngine> engine(
      new ServedEngine(experiment, std::move(options)));
  DSMS_RETURN_IF_ERROR(engine->AssembleStack());
  return engine;
}

Status ServedEngine::AssembleStack() {
  QueryGraph* graph = experiment_->plan.graph.get();
  if (graph == nullptr || !graph->validated()) {
    return FailedPreconditionError("experiment has no validated plan");
  }
  if (!experiment_->trace.path.empty()) {
    tracer_ = std::make_unique<Tracer>(&clock_, experiment_->trace.capacity);
  }
  const RunSpec& run = experiment_->run;
  if (run.buffer_cap > 0) graph->SetBufferBound(run.buffer_cap, run.overload);
  if (experiment_->storage.enabled) {
    DSMS_RETURN_IF_ERROR(graph->ConfigureStateStore(
        StorageConfigForSpec(experiment_->storage, run.overload)));
  }

  if (experiment_->recovery.wal) {
    recovery_ = std::make_unique<RecoveryManager>(
        RecoveryOptionsForSpec(experiment_->recovery));
    if (tracer_ != nullptr) recovery_->set_tracer(tracer_.get());
    DSMS_RETURN_IF_ERROR(recovery_->Open());
    recovery_->RestoreGraph(graph, &clock_);
  }

  ExecConfig config = ExecConfigForRun(run);
  config.tracer = tracer_.get();
  config.shard_mode = ShardMode::kDeterministic;
  Result<std::unique_ptr<Executor>> executor =
      MakeExecutor(graph, &clock_, config, run.executor, run.quantum);
  if (!executor.ok()) return executor.status();
  executor_ = std::move(*executor);
  if (recovery_ != nullptr) {
    recovery_->RestoreExecutor(executor_.get());
    DSMS_RETURN_IF_ERROR(recovery_->AttachSinks(graph));
  }

  // Run() serves for `horizon` from its starting clock. After a restore
  // the clock already sits at the checkpoint instant, so serve only the
  // remainder — the recovered run ends at the same absolute virtual time
  // the uninterrupted run would have.
  if (recovery_ != nullptr && recovery_->recovered()) {
    options_.horizon =
        options_.horizon > clock_.now() ? options_.horizon - clock_.now() : 0;
  }

  server_ = std::make_unique<IngestServer>(graph, executor_.get(), &clock_,
                                           options_);
  if (tracer_ != nullptr) server_->AttachTracer(tracer_.get());
  server_->set_violation_policy(run.violations);
  if (recovery_ != nullptr) {
    server_->AttachRecovery(recovery_.get());
    if (!recovery_->recovered_net_blob().empty()) {
      DSMS_RETURN_IF_ERROR(
          server_->RestoreNetState(recovery_->recovered_net_blob()));
    }
  }
  return OkStatus();
}

Status ServedEngine::Start() {
  DSMS_RETURN_IF_ERROR(server_->Start());
  if (recovery_ != nullptr && recovery_->recovered()) {
    DSMS_RETURN_IF_ERROR(server_->ReplayRecoveredWal());
  }
  return OkStatus();
}

Status ServedEngine::Shutdown() {
  if (recovery_ == nullptr) return OkStatus();
  Status final_checkpoint = server_->CheckpointNow();
  if (!final_checkpoint.ok()) {
    DSMS_LOG(Error) << "final checkpoint failed: "
                    << final_checkpoint.ToString();
  }
  DSMS_RETURN_IF_ERROR(recovery_->FlushWal());
  return recovery_->FlushSinks();
}

ExperimentReport ServedEngine::Report() const {
  return CollectExperimentReport(*graph(), *executor_, clock_.now(),
                                 server_->queue_tracker(),
                                 server_->order_validator());
}

}  // namespace dsms

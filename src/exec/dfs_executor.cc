#include "exec/dfs_executor.h"

#include "common/check.h"
#include "obs/tracer.h"

namespace dsms {

DfsExecutor::DfsExecutor(QueryGraph* graph, VirtualClock* clock,
                         ExecConfig config)
    : Executor(graph, clock, config) {}

int DfsExecutor::FindWork() {
  ++stats_.work_scans;
  // Only operators with a non-empty input can have work (sources never do),
  // so probing the candidates in id order selects the lowest-id operator
  // with work.
  for (int id = ready_.NextCandidate(0); id >= 0;
       id = ready_.NextCandidate(id + 1)) {
    if (graph_->op(id)->HasWork()) return id;
  }
  return -1;
}

bool DfsExecutor::RunStep() {
  if (current_ < 0) {
    current_ = FindWork();
    if (current_ < 0) {
      Operator* resumed = TryEtsSweep();
      if (resumed == nullptr) resumed = TryLeaseExpiry();
      if (resumed == nullptr) {
        ++stats_.idle_returns;
        return false;
      }
      current_ = resumed->id();
    }
  }

  Operator* op = graph_->op(current_);
  const StepResult result = op->Step(ctx_);
  ChargeStep(*op, result);
  UpdateIdleTracker(op, result);

  // Next-Operator-Selection.
  if (result.yield && op->num_outputs() > 0) {
    current_ = FirstSuccessorWithInput(op)->id();  // Forward
    if (tracer_ != nullptr) {
      tracer_->RecordNosRule(op->id(), NosRule::kForward, current_);
    }
    return true;
  }
  if (result.more) {
    if (tracer_ != nullptr) {
      tracer_->RecordNosRule(op->id(), NosRule::kEncore, op->id());
    }
    return true;  // Encore: next := self
  }
  if (op->num_inputs() == 0) {
    // A source relay step with nothing buffered; nothing upstream to visit.
    current_ = -1;
    return true;
  }
  Operator* next =
      BacktrackToWork(op, result.blocked_input, result.idle_waiting);
  current_ = next == nullptr ? -1 : next->id();
  return true;
}

}  // namespace dsms

#include "exec/round_robin_executor.h"

#include "common/check.h"
#include "obs/tracer.h"
#include "operators/operator.h"

namespace dsms {

RoundRobinExecutor::RoundRobinExecutor(QueryGraph* graph, VirtualClock* clock,
                                       ExecConfig config, int quantum)
    : Executor(graph, clock, config), quantum_(quantum) {
  DSMS_CHECK_GE(quantum, 1);
}

void RoundRobinExecutor::AdvanceCursor() {
  cursor_ = (cursor_ + 1) % graph_->num_operators();
  used_in_quantum_ = 0;
}

void RoundRobinExecutor::MarkBlockedIwp(Operator* op) {
  // An IWP operator that is blocked while holding data is idle-waiting even
  // though it is never stepped; account for it as we pass by.
  if (op->is_iwp() && !op->HasWork() && op->HasPendingData()) {
    SetIdleBlocked(op, true);
  }
}

bool RoundRobinExecutor::StepOperator(Operator* op) {
  const StepResult result = op->Step(ctx_);
  ChargeStep(*op, result);
  UpdateIdleTracker(op, result);
  // A run spends one quantum unit regardless of its row count: the quantum
  // bounds consecutive *scheduling decisions*, not rows.
  ++used_in_quantum_;
  if (!result.more || used_in_quantum_ >= quantum_) {
    AdvanceCursor();
  } else if (tracer_ != nullptr) {
    // Staying on the same operator inside the quantum is round-robin's
    // Encore.
    tracer_->RecordNosRule(op->id(), NosRule::kEncore, op->id());
  }
  return true;
}

bool RoundRobinExecutor::RunStep() {
  if (!use_ready_queue()) return RunStepScan();

  // Visit candidates in cyclic order starting at the cursor. Operators
  // without a non-empty input can neither be stepped nor be idle-waiting
  // with pending data, so skipping them wholesale preserves the reference
  // scan's behavior (selection, quantum resets, and idle accounting alike).
  int id = ready_.NextCandidate(cursor_);
  bool wrapped = false;
  while (true) {
    if (id < 0) {
      if (wrapped) break;
      wrapped = true;
      id = ready_.NextCandidate(0);
      continue;
    }
    if (wrapped && id >= cursor_) break;
    Operator* op = graph_->op(id);
    if (op->HasWork()) {
      if (id != cursor_) {
        // The reference scan advanced the cursor to this operator one hop
        // at a time, zeroing the quantum along the way.
        cursor_ = id;
        used_in_quantum_ = 0;
      }
      return StepOperator(op);
    }
    MarkBlockedIwp(op);
    id = ready_.NextCandidate(id + 1);
  }
  // Full cycle found nothing runnable; the reference scan ends with the
  // cursor back where it started and the quantum reset.
  used_in_quantum_ = 0;
  ++stats_.work_scans;
  Operator* resumed = TryEtsSweep();
  if (resumed == nullptr) resumed = TryLeaseExpiry();
  if (resumed != nullptr) {
    cursor_ = resumed->id();
    used_in_quantum_ = 0;
    return true;
  }
  ++stats_.idle_returns;
  return false;
}

bool RoundRobinExecutor::RunStepScan() {
  int n = graph_->num_operators();
  for (int scanned = 0; scanned < n; ++scanned) {
    Operator* op = graph_->op(cursor_);
    if (op->HasWork() && used_in_quantum_ < quantum_) return StepOperator(op);
    MarkBlockedIwp(op);
    AdvanceCursor();
  }
  ++stats_.work_scans;
  Operator* resumed = TryEtsSweep();
  if (resumed == nullptr) resumed = TryLeaseExpiry();
  if (resumed != nullptr) {
    cursor_ = resumed->id();
    used_in_quantum_ = 0;
    return true;
  }
  ++stats_.idle_returns;
  return false;
}

}  // namespace dsms

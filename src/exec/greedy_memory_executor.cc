#include "exec/greedy_memory_executor.h"

#include <deque>
#include <vector>

#include "common/check.h"
#include "operators/operator.h"

namespace dsms {

GreedyMemoryExecutor::GreedyMemoryExecutor(QueryGraph* graph,
                                           VirtualClock* clock,
                                           ExecConfig config)
    : Executor(graph, clock, config) {
  // Reverse BFS from the sinks over producer->consumer arcs.
  int n = graph->num_operators();
  depth_to_sink_.assign(static_cast<size_t>(n), n + 1);
  std::deque<int> frontier;
  for (int i = 0; i < n; ++i) {
    if (graph->op(i)->num_outputs() == 0) {
      depth_to_sink_[static_cast<size_t>(i)] = 0;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.pop_front();
    Operator* op = graph->op(v);
    for (int j = 0; j < op->num_inputs(); ++j) {
      int pred = graph->producer_of(op->input(j)->id());
      if (depth_to_sink_[static_cast<size_t>(pred)] >
          depth_to_sink_[static_cast<size_t>(v)] + 1) {
        depth_to_sink_[static_cast<size_t>(pred)] =
            depth_to_sink_[static_cast<size_t>(v)] + 1;
        frontier.push_back(pred);
      }
    }
  }
  versions_.assign(static_cast<size_t>(n), 0);
  ready_.set_track_dirty(true);
  // The base constructor seeded the candidate set before dirty tracking was
  // on; mark everything dirty once so the first RunStep builds the heap from
  // scratch.
  for (int i = 0; i < n; ++i) ready_.MarkDirty(i);
  for (int i = 0; i < n; ++i) {
    if (graph->op(i)->is_iwp()) iwp_ids_.push_back(i);
  }
}

double GreedyMemoryExecutor::Priority(const Operator& op) const {
  // One step consumes ~1 buffered tuple and emits `out_rate` tuples into
  // downstream buffers (estimated from lifetime counters; optimistic 0
  // before any observation, so new operators get tried).
  const OperatorStats& stats = op.stats();
  uint64_t in = stats.data_in + stats.punctuation_in;
  uint64_t out = stats.data_out + stats.punctuation_out;
  double out_rate = in == 0 ? 0.0
                            : static_cast<double>(out) /
                                  static_cast<double>(in);
  if (op.num_outputs() == 0) out_rate = 0.0;  // sinks retire tuples
  return 1.0 - out_rate;
}

void GreedyMemoryExecutor::RefreshDirty() {
  for (int id : ready_.dirty()) {
    ++versions_[static_cast<size_t>(id)];
    if (!ready_.IsCandidate(id)) continue;
    Operator* op = graph_->op(id);
    heap_.push(HeapEntry{Priority(*op), depth_to_sink_[static_cast<size_t>(id)],
                         id, versions_[static_cast<size_t>(id)]});
  }
  ready_.ClearDirty();
}

Operator* GreedyMemoryExecutor::PopBest() {
  while (!heap_.empty()) {
    HeapEntry top = heap_.top();
    heap_.pop();
    if (top.version != versions_[static_cast<size_t>(top.id)]) continue;
    Operator* op = graph_->op(top.id);
    // A candidate whose HasWork() is currently false stays out of the heap
    // until a buffer event re-dirties it (any event that could flip
    // HasWork() marks the operator dirty).
    if (!ready_.IsCandidate(top.id) || !op->HasWork()) continue;
    return op;
  }
  return nullptr;
}

void GreedyMemoryExecutor::StepAndAccount(Operator* op) {
  StepResult result = op->Step(ctx_);
  ChargeStep(*op, result);
  UpdateIdleTracker(op, result);
  // The step changed this operator's lifetime counters (its priority) even
  // when no buffer event fired; force a heap refresh.
  ready_.MarkDirty(op->id());
}

bool GreedyMemoryExecutor::RunStep() {
  // Blocked IWP operators are never selected (no HasWork); account for their
  // idle-waiting on every activation.
  for (int id : iwp_ids_) {
    if (!ready_.IsCandidate(id)) continue;
    Operator* op = graph_->op(id);
    if (!op->HasWork() && op->HasPendingData()) {
      SetIdleBlocked(op, true);
    }
  }
  RefreshDirty();
  Operator* best = PopBest();
  ++stats_.work_scans;
  if (best == nullptr) {
    Operator* resumed = TryEtsSweep();
    if (resumed == nullptr) resumed = TryLeaseExpiry();
    if (resumed == nullptr) {
      ++stats_.idle_returns;
      return false;
    }
    best = resumed;
  }
  StepAndAccount(best);
  return true;
}

}  // namespace dsms

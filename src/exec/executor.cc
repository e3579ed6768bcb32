#include "exec/executor.h"

#include <algorithm>

#include "common/check.h"
#include "obs/tracer.h"
#include "operators/iwp_operator.h"
#include "operators/source.h"
#include "recovery/state_codec.h"

namespace dsms {

Executor::Executor(QueryGraph* graph, VirtualClock* clock, ExecConfig config)
    : graph_(graph),
      clock_(clock),
      config_(config),
      tracer_(config.tracer),
      ets_gate_(config.ets),
      ctx_(clock) {
  ctx_.set_row_budget(config_.batch_size);
  DSMS_CHECK(graph != nullptr);
  DSMS_CHECK(clock != nullptr);
  DSMS_CHECK(graph->validated());
  ets_gate_.set_tracer(tracer_);
  frontier_.set_policy(config_.lease);
  frontier_.set_tracer(tracer_);
  frontier_.set_clock(clock_);
  for (const auto& op : graph->operators()) {
    if (op->is_iwp()) idle_trackers_.emplace(op->id(), IdleWaitTracker());
    if (auto* source = dynamic_cast<Source*>(op.get())) {
      frontier_.Register(source);
      source->set_frontier(&frontier_);
    }
  }
  ets_gate_.set_frontier(&frontier_);
  if (use_ready_queue()) {
    ready_.Reset(graph->num_operators());
    for (int b = 0; b < graph->num_buffers(); ++b) {
      StreamBuffer* buffer = graph->buffer(b);
      int consumer = graph->consumer_of(b);
      buffer->set_ready_tracker(&ready_, consumer);
      // Tests and drivers may ingest before the executor exists; fold the
      // current occupancy in so pre-filled buffers count as ready.
      if (!buffer->empty()) ready_.NoteFilled(consumer);
    }
  }
}

Executor::~Executor() {
  for (const auto& op : graph_->operators()) {
    if (auto* source = dynamic_cast<Source*>(op.get())) {
      if (source->frontier() == &frontier_) source->set_frontier(nullptr);
    }
  }
  if (use_ready_queue()) {
    for (int b = 0; b < graph_->num_buffers(); ++b) {
      StreamBuffer* buffer = graph_->buffer(b);
      if (buffer->ready_tracker() == &ready_) {
        buffer->set_ready_tracker(nullptr, -1);
      }
    }
  }
}

uint64_t Executor::RunUntilIdle() {
  uint64_t steps = 0;
  while (RunStep()) ++steps;
  return steps;
}

const IdleWaitTracker* Executor::idle_tracker(int op_id) const {
  auto it = idle_trackers_.find(op_id);
  return it == idle_trackers_.end() ? nullptr : &it->second;
}

void Executor::SaveState(StateWriter& w) const {
  w.U64(stats_.data_steps);
  w.U64(stats_.punctuation_steps);
  w.U64(stats_.empty_steps);
  w.U64(stats_.backtracks);
  w.U64(stats_.backtrack_hops);
  w.U64(stats_.ets_generated);
  w.U64(stats_.lease_expired_ets);
  w.U64(stats_.idle_returns);
  w.U64(stats_.work_scans);
  w.U64(stats_.batches);
  w.U64(stats_.batch_rows);
  w.U64(stats_.batch_punct_splits);
  w.U64(stats_.batch_fallback_steps);
  ets_gate_.SaveState(w);
  std::vector<int64_t> strategy = ExportStrategyState();
  w.U32(static_cast<uint32_t>(strategy.size()));
  for (int64_t v : strategy) w.I64(v);
  frontier_.SaveState(w);
}

void Executor::LoadState(StateReader& r) {
  stats_.data_steps = r.U64();
  stats_.punctuation_steps = r.U64();
  stats_.empty_steps = r.U64();
  stats_.backtracks = r.U64();
  stats_.backtrack_hops = r.U64();
  stats_.ets_generated = r.U64();
  stats_.lease_expired_ets = r.U64();
  stats_.idle_returns = r.U64();
  stats_.work_scans = r.U64();
  stats_.batches = r.U64();
  stats_.batch_rows = r.U64();
  stats_.batch_punct_splits = r.U64();
  stats_.batch_fallback_steps = r.U64();
  ets_gate_.LoadState(r);
  std::vector<int64_t> strategy;
  uint32_t m = r.U32();
  for (uint32_t i = 0; i < m && r.ok(); ++i) strategy.push_back(r.I64());
  if (r.ok()) ImportStrategyState(strategy);
  frontier_.LoadState(r);
}

void Executor::ChargeStep(const Operator& op, const StepResult& result) {
  const Timestamp start = clock_->now();
  const bool batching = config_.batch_size > 0;
  StepKind kind;
  Duration cost;
  if (result.run_rows > 0) {
    // Each row of a run is charged exactly one data step, in one clock
    // advance.
    stats_.data_steps += result.run_rows;
    kind = StepKind::kData;
    cost = config_.costs.data_step * static_cast<Duration>(result.run_rows);
    if (batching) {
      ++stats_.batches;
      stats_.batch_rows += result.run_rows;
      if (result.run_stopped_at_punctuation) ++stats_.batch_punct_splits;
    }
  } else if (result.processed_data) {
    ++stats_.data_steps;
    kind = StepKind::kData;
    cost = config_.costs.data_step;
  } else if (result.processed_punctuation) {
    ++stats_.punctuation_steps;
    kind = StepKind::kPunctuation;
    cost = config_.costs.punctuation_step;
  } else {
    ++stats_.empty_steps;
    kind = StepKind::kEmpty;
    cost = config_.costs.empty_step;
  }
  if (batching && result.run_rows == 0) ++stats_.batch_fallback_steps;
  // Virtual time lost to disk work under an injected disk_stall fault is
  // charged to the step that performed the spill/load.
  cost += result.storage_stall;
  clock_->Advance(cost);
  if (tracer_ == nullptr) return;
  if (batching && result.run_rows > 0) {
    // With batching on, a run is one kBatchDrain slice instead of `rows`
    // kStep slices.
    tracer_->RecordBatchDrain(op.id(), start, cost,
                              static_cast<int64_t>(result.run_rows),
                              result.run_stopped_at_punctuation);
  } else {
    tracer_->RecordStep(op.id(), start, cost, kind);
  }
}

void Executor::UpdateIdleTracker(Operator* op, const StepResult& result) {
  SetIdleBlocked(op, result.idle_waiting);
}

void Executor::SetIdleBlocked(Operator* op, bool blocked) {
  auto it = idle_trackers_.find(op->id());
  if (it == idle_trackers_.end()) return;
  if (tracer_ != nullptr && it->second.blocked() != blocked) {
    tracer_->RecordIdleWait(op->id(), /*begin=*/blocked);
  }
  if (blocked) {
    it->second.MarkBlocked(clock_->now());
  } else {
    it->second.MarkUnblocked(clock_->now());
  }
}

Operator* Executor::FirstSuccessorWithInput(Operator* op) const {
  DSMS_CHECK_GE(op->num_outputs(), 1);
  for (int i = 0; i < op->num_outputs(); ++i) {
    if (!op->output(i)->empty()) {
      return graph_->op(graph_->consumer_of(op->output(i)->id()));
    }
  }
  return graph_->op(graph_->consumer_of(op->output(0)->id()));
}

Operator* Executor::BacktrackToWork(Operator* op, int blocked_input,
                                    bool wants_ets) {
  ++stats_.backtracks;
  Operator* node = op;
  wants_ets = wants_ets || op->WantsEts();
  Timestamp release_bound = op->EtsReleaseBound();
  int blocked = blocked_input >= 0 ? blocked_input : 0;
  int64_t hops = 0;
  // One kNosRule event per backtrack walk, attributed to the operator the
  // walk started from; arg = hops taken before work (or the scheduler) was
  // reached.
  auto done = [this, op, &hops](Operator* next) {
    if (tracer_ != nullptr) {
      tracer_->RecordNosRule(op->id(), NosRule::kBacktrack, hops);
    }
    return next;
  };
  for (;;) {
    if (node->num_inputs() == 0) {
      // Reached a source node. If the wrapper delivered tuples meanwhile,
      // resume forward; otherwise this is the on-demand ETS point
      // (Section 4: "once the backtracking process takes us all the way
      // back to the source node, we can generate a new ETS value and send
      // it down along the path on which backtracking just occurred").
      auto* source = dynamic_cast<Source*>(node);
      DSMS_CHECK(source != nullptr);
      if (!source->output()->empty()) {
        return done(FirstSuccessorWithInput(node));
      }
      if (ets_gate_.MaybeGenerate(source, clock_->now(), wants_ets,
                                  release_bound)) {
        ++stats_.ets_generated;
        clock_->Advance(config_.costs.ets_generation);
        return done(FirstSuccessorWithInput(node));
      }
      return done(nullptr);  // Return control to the scheduler.
    }

    Operator* pred = graph_->predecessor(node, blocked);
    ++stats_.backtrack_hops;
    ++hops;
    clock_->Advance(config_.costs.backtrack_hop);

    // Apply the NOS rules to pred without stepping it: Forward if it has
    // produced output, Encore if it has processable input, otherwise keep
    // backtracking. Never Forward back into the operator we just came from:
    // its pending output there is exactly what it cannot consume (e.g. a
    // punctuation a strict-mode union is holding), so bouncing back would
    // livelock.
    for (int i = 0; i < pred->num_outputs(); ++i) {
      if (pred->output(i)->empty()) continue;
      Operator* succ = graph_->op(graph_->consumer_of(pred->output(i)->id()));
      if (succ != node) return done(succ);
    }
    if (pred->HasWork()) return done(pred);

    if (pred->WantsEts()) {
      wants_ets = true;
      release_bound = std::min(release_bound, pred->EtsReleaseBound());
    }
    if (pred->is_iwp()) {
      auto* iwp = dynamic_cast<IwpOperator*>(pred);
      DSMS_CHECK(iwp != nullptr);
      blocked = iwp->BlockedInput();
    } else {
      blocked = 0;
    }
    node = pred;
  }
}

Operator* Executor::TryEtsSweep() {
  if (config_.ets.mode != EtsMode::kOnDemand) return nullptr;
  for (const auto& op : graph_->operators()) {
    if (op->HasWork() || !op->WantsEts()) continue;
    int blocked = 0;
    if (auto* iwp = dynamic_cast<IwpOperator*>(op.get())) {
      blocked = iwp->BlockedInput();
    }
    Operator* next =
        BacktrackToWork(op.get(), blocked, /*wants_ets=*/true);
    if (next != nullptr) return next;
  }
  return nullptr;
}

Operator* Executor::TryLeaseExpiry() {
  if (config_.lease.duration <= 0) return nullptr;
  // Only step in when some IWP operator is actually holding back results;
  // a quiet graph with nothing idle-waiting needs no fallback bounds.
  bool idle_waiting = false;
  for (const auto& op : graph_->operators()) {
    if (op->WantsEts()) {
      idle_waiting = true;
      break;
    }
  }
  if (!idle_waiting) return nullptr;

  const Timestamp now = clock_->now();
  frontier_.Poll(now);
  Operator* resumed = nullptr;
  for (const auto& op : graph_->operators()) {
    auto* source = dynamic_cast<Source*>(op.get());
    if (source == nullptr) continue;
    if (!frontier_.LeaseExpired(source, now)) continue;
    frontier_.NoteLeaseFire(source, now);
    if (ets_gate_.GenerateFallback(source, now)) {
      ++stats_.lease_expired_ets;
      frontier_.NoteLeaseExpiredEts(source, now);
      clock_->Advance(config_.costs.ets_generation);
      if (resumed == nullptr) resumed = FirstSuccessorWithInput(source);
    }
  }
  return resumed;
}

}  // namespace dsms

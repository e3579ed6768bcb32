#ifndef DSMS_EXEC_EXECUTOR_H_
#define DSMS_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/time.h"
#include "core/ready_tracker.h"
#include "exec/ets_policy.h"
#include "exec/exec_stats.h"
#include "frontier/frontier_tracker.h"
#include "graph/query_graph.h"
#include "metrics/idle_wait_tracker.h"
#include "operators/operator.h"

namespace dsms {

class StateReader;
class StateWriter;
class Tracer;

/// Virtual CPU cost model: how much the clock advances per operator step.
/// Defaults are calibrated so the reproduced figures land in the paper's
/// regime (see EXPERIMENTS.md); every bench states the values it uses.
struct CostModel {
  /// Step that consumed a data tuple.
  Duration data_step = 25;
  /// Step that consumed a punctuation tuple.
  Duration punctuation_step = 20;
  /// Step that consumed nothing (blocked/empty probe).
  Duration empty_step = 2;
  /// One hop of a backtrack walk (scheduling overhead).
  Duration backtrack_hop = 2;
  /// Generating one ETS at a source.
  Duration ets_generation = 5;
};

/// How executors discover runnable operators.
enum class SchedulerMode {
  /// Incrementally maintained candidate set (ReadyTracker): buffers report
  /// empty<->non-empty transitions and executors only probe operators with
  /// at least one non-empty input. The default.
  kReadyQueue = 0,
  /// Full O(n) operator-table scans, byte-for-byte the original behavior.
  /// Kept as the oracle for the trace-equivalence tests.
  kScanReference = 1,
};

/// How the sharded executor schedules its shards (exec/sharded_executor.h).
enum class ShardMode {
  /// All shards interleave cooperatively on one thread, handing control
  /// across shard boundaries at NOS granularity with a virtual-time epoch
  /// barrier at every idle return. Byte-identical to single-shard DFS
  /// execution — the mode the trace-equivalence and chaos byte-identity
  /// suites run.
  kDeterministic = 0,
  /// One free-running std::thread per shard with lock-free SPSC cross-shard
  /// queues, synchronized at bulk-synchronous superstep barriers. Real
  /// parallelism; not byte-identical to the scalar schedule.
  kParallel = 1,
};

const char* ShardModeToString(ShardMode mode);

/// Execution configuration shared by all executors.
struct ExecConfig {
  CostModel costs;
  EtsPolicy ets;
  /// Source liveness: lease duration (0 = off) and lifecycle hysteresis of
  /// the frontier tracker (frontier/frontier_tracker.h).
  LeasePolicy lease;
  SchedulerMode scheduler = SchedulerMode::kReadyQueue;
  /// Row budget of one step; 0 (the default) disables batch mode. When > 0,
  /// one step of a single-input row operator consumes a run of up to this
  /// many consecutive data tuples (Operator::StepRun; 0 runs one row per
  /// step), and the exec.batch.* counters and kBatchDrain trace slices
  /// account for the runs. Runs never span a punctuation
  /// (docs/batching.md).
  size_t batch_size = 0;
  /// Execution tracer (owned by the caller, must outlive the executor);
  /// null (the default) disables tracing — every hook is one null check.
  Tracer* tracer = nullptr;
  /// Number of worker shards for the sharded executor; 1 (the default)
  /// means unsharded execution. Streams hash-partition across shards by
  /// stream id (exec/shard_partitioner.h). Only the DFS strategy shards.
  int shards = 1;
  /// Shard scheduling discipline; ignored when shards == 1.
  ShardMode shard_mode = ShardMode::kDeterministic;
  /// Base seed for the per-shard Pcg32 streams (parallel-mode idle backoff
  /// jitter). Shard s draws from Pcg32(shard_seed ^ s), so a run reproduces
  /// identically at any shard count from one seed — DSMS_TEST_SEED flows in
  /// here through the test harness.
  uint64_t shard_seed = 0;
};

/// Common machinery for executors: cost charging, idle-waiting trackers for
/// IWP operators, and the on-demand ETS walk. Concrete strategies (DFS,
/// round-robin) implement RunStep.
///
/// Protocol with the simulation driver: RunStep() performs one operator step
/// (advancing the virtual clock by its cost) and returns true; when nothing
/// is runnable — even after an ETS attempt — it returns false and the driver
/// advances the clock to the next external event.
class Executor {
 public:
  /// `graph` must be validated and outlive the executor; `clock` is shared
  /// with the simulation driver. In kReadyQueue mode the constructor wires
  /// every graph buffer to this executor's ReadyTracker (and seeds it from
  /// already-buffered tuples); the destructor detaches. At most one
  /// ready-queue executor may be live per graph at a time.
  Executor(QueryGraph* graph, VirtualClock* clock, ExecConfig config);
  virtual ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Executes one step; returns false when idle (see class comment).
  virtual bool RunStep() = 0;

  /// Runs steps until idle. Returns the number of steps executed.
  uint64_t RunUntilIdle();

  const ExecStats& stats() const { return stats_; }
  uint64_t ets_generated() const { return ets_gate_.generated(); }
  Timestamp now() const { return clock_->now(); }
  const ExecConfig& config() const { return config_; }

  /// The frontier coordination service every graph source participates in.
  /// Drivers (IngestServer) use it for checkpoint-frontier reads and
  /// connection revocation; tests and metrics read its lifecycle state.
  FrontierTracker* frontier() { return &frontier_; }
  const FrontierTracker& frontier() const { return frontier_; }

  /// True when lease expiry is armed — the gate drivers consult before
  /// draining a run to quiescence.
  bool liveness_enabled() const { return config_.lease.duration > 0; }

  /// Idle-waiting tracker of an IWP operator (by operator id); null for
  /// non-IWP operators.
  const IdleWaitTracker* idle_tracker(int op_id) const;

  // --- checkpoint support (recovery/) ---
  /// Serializes the executor's behavior-affecting state: ExecStats, the ETS
  /// gate (counters + throttle), the frontier tracker's lifecycle state,
  /// and the concrete strategy's cursor (ExportStrategyState).
  /// IdleWaitTrackers are metrics-only and deliberately not saved
  /// (docs/recovery.md).
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 protected:
  /// Strategy-specific scheduling cursor as a flat int64 vector (DFS:
  /// current operator; round-robin: cursor + used quantum). The default
  /// (empty) is correct for strategies whose next decision is derived
  /// fresh from buffer state (greedy-memory rebuilds its lazy heap).
  virtual std::vector<int64_t> ExportStrategyState() const { return {}; }
  virtual void ImportStrategyState(const std::vector<int64_t>& state) {
    (void)state;
  }
  class ClockContext : public ExecContext {
   public:
    explicit ClockContext(VirtualClock* clock) : clock_(clock) {}
    Timestamp now() const override { return clock_->now(); }

   private:
    VirtualClock* clock_;
  };

  /// Advances the clock per the cost model (a run of `run_rows` rows costs
  /// that many data steps), bumps step counters — with batch mode on also
  /// the exec.batch.* counters: a run is a batch, any other step a
  /// fallback — and (when tracing) records the step slice for `op`'s track.
  void ChargeStep(const Operator& op, const StepResult& result);

  /// Updates the IWP idle tracker for `op` after a step.
  void UpdateIdleTracker(Operator* op, const StepResult& result);

  /// Transitions `op`'s idle tracker to `blocked` (no-op for non-IWP
  /// operators), recording idle-wait begin/end trace events on actual state
  /// changes. All executor paths that mark idle-waiting go through here so
  /// the trace's B/E pairs balance.
  void SetIdleBlocked(Operator* op, bool blocked);

  /// First successor of `op` whose input arc is non-empty; falls back to
  /// the first successor. Requires num_outputs >= 1.
  Operator* FirstSuccessorWithInput(Operator* op) const;

  /// Walks upstream from (`op`, `blocked_input`) to a source, applying the
  /// Backtrack NOS rule of Section 3.2 at every hop. Returns the operator to
  /// execute next (an Encore/Forward target found on the way, or the
  /// successor of a source that has buffered tuples or just produced an
  /// on-demand ETS), or nullptr when control must return to the scheduler.
  /// `wants_ets` seeds the idle-waiting flag (true when the walk starts at
  /// an idle-waiting IWP operator).
  Operator* BacktrackToWork(Operator* op, int blocked_input, bool wants_ets);

  /// When nothing is runnable: resume every idle-waiting IWP operator's
  /// backtrack at its blocking source and try to generate ETS. Returns an
  /// operator made runnable by a generated ETS, or nullptr.
  Operator* TryEtsSweep();

  /// Last-resort liveness check, consulted only after TryEtsSweep failed:
  /// if an IWP operator is idle-waiting and some source's lease has expired
  /// (silent beyond the lease duration), emit a fallback ETS there so the
  /// frontier advances without the silent source (bypassing ETS mode and
  /// throttle — see EtsGate::GenerateFallback). Returns an operator made
  /// runnable by the fallback, or nullptr.
  Operator* TryLeaseExpiry();

  bool use_ready_queue() const {
    return config_.scheduler == SchedulerMode::kReadyQueue;
  }

  QueryGraph* graph_;
  VirtualClock* clock_;
  ExecConfig config_;
  /// Copy of config_.tracer for hook brevity; null when tracing is off.
  Tracer* tracer_ = nullptr;
  ExecStats stats_;
  EtsGate ets_gate_;
  /// Central frontier authority: graph sources are registered as
  /// participants at construction and detached at destruction. Lifecycle
  /// state rides in the executor's checkpoint blob (SaveState/LoadState).
  FrontierTracker frontier_;
  ClockContext ctx_;
  std::map<int, IdleWaitTracker> idle_trackers_;
  /// Candidate set maintained by buffer notifications (kReadyQueue mode).
  ReadyTracker ready_;
};

}  // namespace dsms

#endif  // DSMS_EXEC_EXECUTOR_H_

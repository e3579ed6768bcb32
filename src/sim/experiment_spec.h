#ifndef DSMS_SIM_EXPERIMENT_SPEC_H_
#define DSMS_SIM_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/time.h"
#include "exec/ets_policy.h"
#include "exec/exec_stats.h"
#include "exec/executor.h"
#include "graph/plan_parser.h"
#include "metrics/order_validator.h"
#include "metrics/queue_size_tracker.h"
#include "net/net_fault_spec.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal.h"
#include "sim/arrival_process.h"
#include "sim/scenario.h"
#include "sim/simulation.h"
#include "storage/state_store.h"

namespace dsms {

/// A self-contained experiment description: a query plan (the statements of
/// graph/plan_parser.h) plus execution statements, all in one text file:
///
///   feed NAME process=poisson rate=50 [seed=N] [payload=seq]
///   feed NAME process=constant rate=10
///   feed NAME process=bursty burst_rate=500 idle_rate=1
///        burst_len=200ms idle_len=5s [seed=N]
///   feed NAME trace=/path/to/arrivals.txt
///   feed NAME ... payload=randint lo=0 hi=100 fields=2
///   heartbeat NAME period=100ms [phase=10ms]
///   fault NAME kind=stall|death|burst|disorder|skew|dup-punct|
///       regress-punct|flap
///       [start=60s] [duration=60s] [factor=4] [prob=0.25]
///       [magnitude=2s] [period=1s] [seed=N]
///   run [horizon=600s] [warmup=30s] [ets=on-demand|none]
///       [executor=dfs|round-robin] [quantum=8] [ets_min_interval=DUR]
///       [lease=DUR] [buffer_cap=N] [overload=grow|block|shed]
///       [violations=count|drop|quarantine]
///   batch size=N
///   state mem_budget=SIZE spill_dir=PATH [granularity=DUR]
///   trace path=/tmp/run.trace.json [capacity=262144]
///   wal dir=/path/to/waldir [sync=none|interval|every_frame]
///       [sync_interval_bytes=N] [segment_bytes=N]
///   checkpoint horizon=5s [keep=2]
///   crash at=30s
///   netfault kind=split|coalesce|slowloris|rst|half-open|reconnect-storm|
///       dup-hello|garbage
///       [at=1s] [seed=N] [count=3] [chunk=BYTES] [gap=1ms] [bytes=64]
///       [stale=1]
///
/// `feed`, `heartbeat` and `fault` reference `stream` operators declared in
/// the plan; `run` and `trace` may appear at most once (defaults apply
/// otherwise). `netfault` arms a wire-level fault (net/net_fault_spec.h)
/// against the feeder-server socket path; it is consumed by
/// `streamets_feed --chaos` and the chaos tests, not by the in-process
/// Simulation (which has no sockets to corrupt). `trace` records an execution trace of the run and writes it
/// to `path` as Chrome trace-event JSON (open in Perfetto). This is what
/// the `streamets_run` example binary executes.
struct FeedSpec {
  enum class Kind { kPoisson, kConstant, kBursty, kTrace };
  enum class Payload { kSequence, kRandInt };

  std::string source;
  Kind kind = Kind::kPoisson;
  double rate = 1.0;
  double burst_rate = 100.0;
  double idle_rate = 1.0;
  Duration burst_length = 200 * kMillisecond;
  Duration idle_length = 5 * kSecond;
  std::string trace_path;
  uint64_t seed = 1;
  Payload payload = Payload::kSequence;
  int64_t randint_lo = 0;
  int64_t randint_hi = 100;
  int payload_fields = 1;
};

struct HeartbeatSpec {
  std::string source;
  Duration period = kSecond;
  Duration phase = 0;
};

/// A fault armed against one named stream (see sim/fault_injector.h).
struct FaultTargetSpec {
  std::string source;
  FaultSpec spec;
};

struct RunSpec {
  Duration horizon = 600 * kSecond;
  Duration warmup = 0;
  EtsMode ets = EtsMode::kOnDemand;
  ExecutorKind executor = ExecutorKind::kDfs;
  int quantum = 8;
  Duration ets_min_interval = 0;
  /// Robustness knobs; defaults leave the engine in its fault-intolerant
  /// (but byte-identical to seed) configuration.
  ///
  /// `lease=DUR` is the frontier lease duration (source-liveness horizon).
  Duration lease = 0;
  size_t buffer_cap = 0;
  OverloadPolicy overload = OverloadPolicy::kGrow;
  ViolationPolicy violations = ViolationPolicy::kCount;
  /// Columnar batch size (`batch size=N` statement); 0 = scalar execution.
  size_t batch = 0;
  /// Worker shards (`run shards=N`, DFS only); 1 = classic single-shard
  /// execution. `mode=deterministic|parallel` picks the shard discipline
  /// (see ShardMode; deterministic is byte-identical to shards=1).
  int shards = 1;
  ShardMode shard_mode = ShardMode::kDeterministic;
};

/// Spillable state store configuration (`state` statement; see
/// docs/state_store.md):
///
///   state mem_budget=SIZE spill_dir=PATH [granularity=DUR]
///
/// SIZE accepts a plain byte count or a k/m/g suffix (e.g. 64k, 16m).
/// Window/join state beyond `mem_budget` hot bytes spills to block files
/// under `spill_dir`; `granularity` is the time-bucket width of state
/// blocks. Disk-overload behaviour follows the run statement's `overload=`
/// policy. Without this statement all state stays in memory, unbudgeted.
struct StorageSpec {
  bool enabled = false;
  uint64_t mem_budget = 0;
  std::string spill_dir;
  Duration granularity = kSecond;
};

/// Execution-trace output of a run (`trace` statement); empty path = off.
struct TraceSpec {
  std::string path;
  size_t capacity = 1 << 18;
};

/// Crash-recovery configuration (consumed by examples/streamets_serve; the
/// in-process Simulation has no crash to recover from):
///
///   wal dir=PATH [sync=none|interval|every_frame]
///       [sync_interval_bytes=N] [segment_bytes=N]
///   checkpoint horizon=DUR [keep=N]          (requires wal)
///   crash at=DUR                             (chaos: abort mid-run)
///
/// With none of these present the server behaves byte-identically to the
/// pre-recovery engine (see docs/recovery.md).
struct RecoverySpec {
  bool wal = false;
  std::string dir;
  WalSyncPolicy sync = WalSyncPolicy::kNone;
  uint64_t sync_interval_bytes = 64 * 1024;
  uint64_t segment_bytes = 4 * 1024 * 1024;
  bool checkpoint = false;
  Duration checkpoint_horizon = 0;
  int keep = 2;
  /// Virtual time at which the server aborts itself; 0 = never.
  Timestamp crash_at = 0;
};

struct Experiment {
  ParsedPlan plan;
  std::vector<FeedSpec> feeds;
  std::vector<HeartbeatSpec> heartbeats;
  std::vector<FaultTargetSpec> faults;
  RunSpec run;
  TraceSpec trace;
  RecoverySpec recovery;
  StorageSpec storage;
  /// Wire-level faults armed against the socket path (`netfault`
  /// statements); applied by the chaos feeder/proxy, ignored by the
  /// in-process simulation.
  std::vector<NetFaultSpec> netfaults;
};

/// Parses a combined plan + experiment text. Feed/heartbeat source names
/// are resolved against the plan (must name `stream` statements).
Result<Experiment> ParseExperiment(std::string_view text);

/// As above, but with `require_feeds=false` an experiment without `feed`
/// statements is accepted. A network server (examples/streamets_serve)
/// takes its input from live connections, not simulated feeds, so a
/// plan+run file with no feed section is a valid configuration for it.
Result<Experiment> ParseExperiment(std::string_view text, bool require_feeds);

/// Payload generator for one feed, identical to what RunExperiment installs.
/// Exposed so the network load generator (net/feed_schedule.h) can replay
/// the exact tuple contents a Simulation of the same spec would produce.
Simulation::PayloadFn MakeFeedPayload(const FeedSpec& feed);

/// Arrival process for one feed, identical to what RunExperiment installs.
Result<std::unique_ptr<ArrivalProcess>> MakeArrivalProcess(
    const FeedSpec& feed);

/// Seed of the per-feed external-timestamp jitter RNG. The simulation and
/// the network feeder must derive it identically or externally stamped
/// replays diverge.
inline uint64_t FeedJitterSeed(const FeedSpec& feed) {
  return feed.seed * 31 + 7;
}

/// Per-sink results of an experiment run.
struct SinkReport {
  std::string name;
  uint64_t tuples = 0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

struct ExperimentReport {
  Timestamp end_time = 0;
  std::vector<SinkReport> sinks;
  int64_t peak_queue_total = 0;
  uint64_t ets_generated = 0;
  /// Robustness: fault activity and which defenses absorbed it.
  uint64_t fault_events = 0;
  uint64_t lease_expired_ets = 0;
  bool degraded = false;
  uint64_t shed_tuples = 0;
  uint64_t quarantined = 0;
  uint64_t dropped_late = 0;
  uint64_t buffer_order_violations = 0;
  uint64_t max_buffer_hwm = 0;
  /// Sharded execution (run shards=N > 1; all zero otherwise).
  uint64_t shards_used = 0;
  uint64_t shard_hops = 0;
  uint64_t shard_epochs = 0;
  /// State-store activity (zeros when no `state` statement configured one).
  StorageStats storage;
  ExecStats exec;
  /// Per-operator counters (metrics/stats_report.h), pre-rendered.
  std::string operator_stats;
  /// Degraded-mode summary (RobustnessReportString); empty when the run
  /// stayed on the happy path.
  std::string robustness;

  /// Publishes every field into `registry` under "experiment." /
  /// "sink.<name>." names — the unified snapshot path for rendering
  /// (MetricsRegistry::PrintTable / PrintJson). Fields stay the accessors.
  void PublishTo(MetricsRegistry* registry) const;
};

/// The executor configuration of a run: ETS mode and throttle, lease, batch
/// size, shards and shard mode. Every driver of an experiment starts from
/// it; callers add the tracer and may override shard_mode.
ExecConfig ExecConfigForRun(const RunSpec& run);

/// The one executor factory: DFS (a ShardedExecutor when config.shards > 1),
/// round-robin with `quantum`, or greedy-memory, over `graph` and `clock`
/// (neither owned; both must outlive the executor). Only the DFS strategy
/// shards; any other kind with config.shards > 1 is InvalidArgument.
Result<std::unique_ptr<Executor>> MakeExecutor(
    QueryGraph* graph, VirtualClock* clock, const ExecConfig& config,
    ExecutorKind kind = ExecutorKind::kDfs, int quantum = 8);

/// The state-store configuration of a `state` statement; disk overload
/// follows the run's `overload=` policy.
StorageConfig StorageConfigForSpec(const StorageSpec& storage,
                                   OverloadPolicy overload);

/// The recovery-manager options of the `wal`/`checkpoint` statements.
RecoveryOptions RecoveryOptionsForSpec(const RecoverySpec& recovery);

/// Reads every engine-side report field after a run: sinks, peak queue,
/// ETS and lease counts, degradation, shedding, order-policy counters,
/// buffer high-water mark, shard counters, storage and executor stats, and
/// the operator/robustness tables. `queues` and `validator` are the
/// caller's (Simulation or IngestServer); fault_events is filled by the
/// caller too.
ExperimentReport CollectExperimentReport(const QueryGraph& graph,
                                         const Executor& executor,
                                         Timestamp end_time,
                                         const QueueSizeTracker& queues,
                                         const OrderValidator& validator);

/// Builds the executor and simulation described by `experiment`, runs it,
/// and collects the report. The experiment's graph is consumed (buffers
/// retain final state, usable for further inspection).
Result<ExperimentReport> RunExperiment(Experiment* experiment);

}  // namespace dsms

#endif  // DSMS_SIM_EXPERIMENT_SPEC_H_

#ifndef DSMS_SIM_SCENARIO_H_
#define DSMS_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "exec/exec_stats.h"
#include "exec/executor.h"
#include "metrics/order_validator.h"
#include "sim/fault_injector.h"
#include "storage/state_store.h"

namespace dsms {

class MetricsRegistry;

/// The four timestamp-management strategies compared in Section 6.
enum class ScenarioKind {
  kNoEts = 0,       // A: internally timestamped, no punctuation at all
  kPeriodicEts = 1, // B: internal timestamps + periodic heartbeats [9]
  kOnDemandEts = 2, // C: internal timestamps + on-demand ETS (this paper)
  kLatent = 3,      // D: latent timestamps (optimal baseline)
};

const char* ScenarioKindToString(ScenarioKind kind);

enum class ExecutorKind {
  kDfs = 0,
  kRoundRobin = 1,
  kGreedyMemory = 2,
};

/// Query graph shapes used by the experiments and ablations.
enum class QueryShape {
  /// The paper's graph: N streams -> selection each -> union -> sink.
  kUnion = 0,
  /// Two streams -> selection each -> symmetric window join -> sink.
  kJoin = 1,
  /// One stream -> selection -> tumbling/sliding window aggregate -> sink.
  kAggregate = 2,
};

enum class ArrivalKind {
  kPoisson = 0,
  kConstant = 1,
  kBursty = 2,  // fast stream bursty (MMPP); slow streams stay Poisson
};

/// Full parameterization of one experiment run. Defaults reproduce the
/// paper's setup: Poisson 50 / 0.05 tuples/s, 95% selectivity filters,
/// binary union, internal timestamps, DFS execution.
struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kOnDemandEts;
  ExecutorKind executor = ExecutorKind::kDfs;
  QueryShape shape = QueryShape::kUnion;
  ArrivalKind arrivals = ArrivalKind::kPoisson;

  double fast_rate = 50.0;   // tuples/s on stream 1
  double slow_rate = 0.05;   // tuples/s on each further stream
  int num_slow_streams = 1;  // union fan-in = 1 + num_slow_streams
  double selectivity = 0.95;

  /// B only: heartbeat punctuations per second injected into each slow
  /// stream (the sparse side, as in the paper).
  double heartbeat_rate = 0.0;
  /// B only: also inject heartbeats into the fast stream.
  bool heartbeat_fast = false;

  /// kInternal (paper's main experiments) or kExternal (δ ablation).
  /// Ignored when kind == kLatent.
  TimestampKind ts_kind = TimestampKind::kInternal;
  Duration skew_bound = 0;  // δ for external timestamps

  /// Internal-timestamp granularity (Section 4.1 ablation): coarse values
  /// produce simultaneous tuples.
  Duration timestamp_granularity = 1;

  /// false selects the basic Figure-1 union (no TSM registers), the
  /// baseline for bench/abl_simultaneous.
  bool use_tsm_registers = true;

  Duration join_window = 2 * kSecond;   // per side, kJoin
  Duration agg_window = kSecond;        // kAggregate
  Duration agg_slide = kSecond;

  // MMPP parameters for ArrivalKind::kBursty (applied to the fast stream).
  double burst_rate = 500.0;
  double idle_rate = 1.0;
  Duration mean_burst_length = 200 * kMillisecond;
  Duration mean_idle_length = 5 * kSecond;

  CostModel costs;
  Duration ets_min_interval = 0;
  int rr_quantum = 8;

  /// Row budget of one step; 0 (the default) turns batch mode off. See
  /// ExecConfig::batch_size and docs/batching.md.
  size_t batch_size = 0;

  /// When true, every buffer push/pop in the run is folded into
  /// ScenarioResult::trace_hash (FNV-1a over the full tuple contents and
  /// arc id). Two runs with equal hashes executed byte-identical tuple
  /// movements in the same order.
  bool record_trace = false;

  /// When non-empty, the run records an execution trace (operator steps,
  /// NOS rules, ETS generations, idle-waits, buffer high-water marks,
  /// fault injections) and writes it to this path as Chrome trace-event
  /// JSON (load in Perfetto / chrome://tracing). Empty = tracing off; the
  /// run is then byte-identical to an untraced one.
  std::string trace_path;
  /// Ring capacity of the execution tracer (newest events win once full).
  size_t trace_capacity = 1 << 18;

  // --- robustness: fault injection and graceful degradation ---
  // (all defaults keep the run byte-identical to the pre-robustness engine)

  /// Fault armed against sources[fault_target] (kNone = no injection).
  FaultSpec fault;
  /// Index into the scenario's source list (clamped); default 1 targets the
  /// first slow stream — the one whose silence wedges the IWP operator.
  int fault_target = 1;
  /// Additional faults, each aimed at its own FaultSpec::source index in
  /// the scenario's source list (clamped). Composes with `fault` for
  /// multi-bad-source chaos runs: at most one fault per source.
  std::vector<FaultSpec> extra_faults;
  /// Source liveness: frontier lease duration (0 = off) and lifecycle
  /// hysteresis (ExecConfig::lease).
  LeasePolicy lease;
  /// Per-arc capacity bound (0 = unbounded) and what to do at the limit.
  size_t buffer_capacity = 0;
  OverloadPolicy overload = OverloadPolicy::kGrow;
  /// What the per-arc OrderValidator does with order-violating tuples.
  ViolationPolicy violations = ViolationPolicy::kCount;

  /// Spillable state store (storage/state_store.h): with a non-empty spill
  /// dir the graph gets a StateStore and window/join state beyond
  /// `state_mem_budget` hot bytes spills to block files there (budget 0 =
  /// store attached but never spills). Empty dir (the default) keeps all
  /// state in memory, unbudgeted — byte-identical to the pre-storage
  /// engine. Disk-fault injection (kDiskStall/kDiskFail) requires the
  /// store.
  std::string state_spill_dir;
  uint64_t state_mem_budget = 0;
  Duration state_granularity = kSecond;

  uint64_t seed = 42;
  Duration horizon = 600 * kSecond;
  Duration warmup = 30 * kSecond;
};

/// Headline measurements of one run; see bench/ for how these map onto the
/// paper's figures.
struct ScenarioResult {
  // Output latency at the sink (Figure 7).
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  uint64_t tuples_delivered = 0;

  // Queue occupancy across all arcs (Figure 8).
  int64_t peak_queue_total = 0;
  int64_t peak_queue_data = 0;

  // Idle-waiting of the graph's IWP operator (Section 6 text).
  double idle_fraction = 0.0;
  uint64_t blocked_intervals = 0;

  // Punctuation machinery.
  uint64_t ets_generated = 0;
  uint64_t punctuation_steps = 0;
  uint64_t punctuation_eliminated = 0;

  // Self-checks (both must be 0 for timestamped scenarios): delivered
  // tuples whose timestamp was below a previously delivered one, and
  // per-arc pushes that violated a buffer's running timestamp bound.
  uint64_t order_violations = 0;
  uint64_t buffer_order_violations = 0;

  // Robustness: what the injected fault did and what absorbed it.
  uint64_t fault_events = 0;       // injector actions (0 = fault never fired)
  uint64_t lease_expired_ets = 0;  // lease-expiry fallback ETS
  bool degraded = false;           // some source ran on fallback bounds
  uint64_t shed_tuples = 0;        // dropped by kShedOldest overload policy
  uint64_t quarantined = 0;        // moved to the dead-letter buffer
  uint64_t dropped_late = 0;       // vetoed by kDropLate
  uint64_t late_absorbed = 0;      // late data consumed by the IWP operator
  uint64_t max_buffer_hwm = 0;     // largest single-arc occupancy ever

  // Frontier coordination service (tentpole of the robustness milestone):
  // what the tracker saw and did. All zero when no fault fired and leases
  // never expired.
  uint64_t frontier_violations = 0;        // punctuation/skew/disorder/flap
  uint64_t frontier_lease_expiries = 0;    // lease-expiry fires
  uint64_t frontier_revivals = 0;          // silent sources that came back
  uint64_t frontier_quarantines = 0;       // healthy->...->quarantined trips
  uint64_t frontier_transitions = 0;       // all lifecycle state changes
  uint64_t frontier_quarantined_now = 0;   // sources quarantined at the end
  uint64_t frontier_degraded_now = 0;      // sources not healthy at the end
  /// The tracker's checkpoint frontier at the end of the run (min promise
  /// over trusted sources; kMinTimestamp when nothing ever promised).
  Timestamp frontier_bound = kMinTimestamp;

  /// Populated when config.record_trace: FNV-1a digest and event count of
  /// every buffer push/pop in the run (see ScenarioConfig::record_trace).
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;

  /// Always populated: order-sensitive FNV-1a digest of every data tuple
  /// delivered at the primary sink (kind, timestamps, payload — not the
  /// virtual delivery time). Equal digests mean byte-identical sink output;
  /// the oracle of tests/batch_exec_test.cc.
  uint64_t sink_digest = 0;

  /// State-store activity (all zero when no store was configured).
  StorageStats storage;

  ExecStats exec;

  std::string ToString() const;

  /// Publishes every field into `registry` as gauges/counters under
  /// `prefix` (e.g. "scenario.mean_latency_ms"). The struct's fields stay
  /// the accessors; the registry is the unified snapshot path.
  void PublishTo(MetricsRegistry* registry, const std::string& prefix) const;
};

/// Builds the configured graph, wires feeds and heartbeats, runs the
/// simulation for config.horizon, and collects results. Deterministic per
/// config (all randomness is seeded from config.seed).
ScenarioResult RunScenario(const ScenarioConfig& config);

}  // namespace dsms

#endif  // DSMS_SIM_SCENARIO_H_

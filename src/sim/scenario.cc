#include "sim/scenario.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/strings.h"
#include "exec/sharded_executor.h"
#include "graph/graph_builder.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "operators/iwp_operator.h"
#include "sim/arrival_process.h"
#include "sim/experiment_spec.h"
#include "sim/simulation.h"

namespace dsms {
namespace {

TimestampKind EffectiveTsKind(const ScenarioConfig& config) {
  return config.kind == ScenarioKind::kLatent ? TimestampKind::kLatent
                                              : config.ts_kind;
}

std::unique_ptr<ArrivalProcess> MakeFastProcess(const ScenarioConfig& config) {
  switch (config.arrivals) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonProcess>(config.fast_rate,
                                              config.seed * 31 + 1);
    case ArrivalKind::kConstant:
      return std::make_unique<ConstantRateProcess>(config.fast_rate);
    case ArrivalKind::kBursty:
      return std::make_unique<BurstyProcess>(
          config.burst_rate, config.idle_rate, config.mean_burst_length,
          config.mean_idle_length, config.seed * 31 + 1);
  }
  return nullptr;
}

std::unique_ptr<ArrivalProcess> MakeSlowProcess(const ScenarioConfig& config,
                                                int index) {
  uint64_t seed = config.seed * 31 + 100 + static_cast<uint64_t>(index);
  if (config.arrivals == ArrivalKind::kConstant) {
    return std::make_unique<ConstantRateProcess>(config.slow_rate);
  }
  return std::make_unique<PoissonProcess>(config.slow_rate, seed);
}

/// Order-sensitive FNV-1a digest over tuple contents; shared by the arc
/// TraceRecorder and the sink-output digest.
class FnvDigest {
 public:
  uint64_t hash() const { return hash_; }

  void Mix(uint64_t word) {
    // FNV-1a, one byte at a time.
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (i * 8)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }

  void MixTuple(const Tuple& tuple) {
    Mix(static_cast<uint64_t>(tuple.kind()));
    Mix(static_cast<uint64_t>(tuple.timestamp_kind()));
    Mix(tuple.has_timestamp() ? 1u : 0u);
    if (tuple.has_timestamp()) Mix(static_cast<uint64_t>(tuple.timestamp()));
    Mix(static_cast<uint64_t>(tuple.arrival_time()));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(tuple.source_id())));
    Mix(tuple.sequence());
    Mix(static_cast<uint64_t>(tuple.num_values()));
    for (const Value& v : tuple.values()) MixValue(v);
  }

  void MixValue(const Value& v) {
    Mix(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt64:
        Mix(static_cast<uint64_t>(v.int64_value()));
        break;
      case ValueType::kDouble: {
        double d = v.double_value();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
        std::memcpy(&bits, &d, sizeof(bits));
        Mix(bits);
        break;
      }
      case ValueType::kBool:
        Mix(v.bool_value() ? 1u : 0u);
        break;
      case ValueType::kString: {
        const std::string& s = v.string_value();
        Mix(s.size());
        for (char c : s) Mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
        break;
      }
    }
  }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// Buffer listener folding every push/pop (arc id + full tuple contents)
/// into an FNV-1a digest. Equal digests mean two runs moved byte-identical
/// tuples through the same arcs in the same order.
class TraceRecorder : public BufferListener {
 public:
  uint64_t hash() const { return digest_.hash(); }
  uint64_t events() const { return events_; }

  void OnPush(const StreamBuffer& buffer, const Tuple& tuple) override {
    Record(0x50u, buffer, tuple);
  }
  void OnPop(const StreamBuffer& buffer, const Tuple& tuple) override {
    Record(0x0Fu, buffer, tuple);
  }

 private:
  void Record(uint64_t tag, const StreamBuffer& buffer, const Tuple& tuple) {
    ++events_;
    digest_.Mix(tag);
    digest_.Mix(static_cast<uint64_t>(buffer.id()));
    digest_.MixTuple(tuple);
  }

  FnvDigest digest_;
  uint64_t events_ = 0;
};

}  // namespace

const char* ScenarioKindToString(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kNoEts:
      return "A:no-ets";
    case ScenarioKind::kPeriodicEts:
      return "B:periodic";
    case ScenarioKind::kOnDemandEts:
      return "C:on-demand";
    case ScenarioKind::kLatent:
      return "D:latent";
  }
  return "unknown";
}

std::string ScenarioResult::ToString() const {
  std::string text = StrFormat(
      "latency(ms) mean=%.4f p50=%.4f p99=%.4f max=%.4f | out=%llu | "
      "peak_queue=%lld (data %lld) | idle=%.4f%% (%llu intervals) | "
      "ets=%llu punct_steps=%llu punct_sink=%llu",
      mean_latency_ms, p50_latency_ms, p99_latency_ms, max_latency_ms,
      static_cast<unsigned long long>(tuples_delivered),
      static_cast<long long>(peak_queue_total),
      static_cast<long long>(peak_queue_data), idle_fraction * 100.0,
      static_cast<unsigned long long>(blocked_intervals),
      static_cast<unsigned long long>(ets_generated),
      static_cast<unsigned long long>(punctuation_steps),
      static_cast<unsigned long long>(punctuation_eliminated));
  if (fault_events > 0 || lease_expired_ets > 0 || shed_tuples > 0 ||
      quarantined > 0 || dropped_late > 0 || late_absorbed > 0) {
    text += StrFormat(
        " | faults=%llu lease_ets=%llu%s shed=%llu quarantined=%llu "
        "dropped=%llu late_absorbed=%llu hwm=%llu",
        static_cast<unsigned long long>(fault_events),
        static_cast<unsigned long long>(lease_expired_ets),
        degraded ? " (degraded)" : "",
        static_cast<unsigned long long>(shed_tuples),
        static_cast<unsigned long long>(quarantined),
        static_cast<unsigned long long>(dropped_late),
        static_cast<unsigned long long>(late_absorbed),
        static_cast<unsigned long long>(max_buffer_hwm));
  }
  if (frontier_violations > 0 || frontier_lease_expiries > 0 ||
      frontier_transitions > 0) {
    text += StrFormat(
        " | frontier: violations=%llu lease_expiries=%llu revivals=%llu "
        "quarantines=%llu quarantined_now=%llu degraded_now=%llu",
        static_cast<unsigned long long>(frontier_violations),
        static_cast<unsigned long long>(frontier_lease_expiries),
        static_cast<unsigned long long>(frontier_revivals),
        static_cast<unsigned long long>(frontier_quarantines),
        static_cast<unsigned long long>(frontier_quarantined_now),
        static_cast<unsigned long long>(frontier_degraded_now));
  }
  return text;
}

ScenarioResult RunScenario(const ScenarioConfig& config) {
  TimestampKind ts_kind = EffectiveTsKind(config);
  bool ordered = ts_kind != TimestampKind::kLatent;

  GraphBuilder builder;
  std::vector<Source*> sources;
  Operator* measured = nullptr;  // The IWP / window operator under study.
  Sink* sink = nullptr;

  if (config.shape == QueryShape::kUnion) {
    DSMS_CHECK_GE(config.num_slow_streams, 1);
    Source* fast =
        builder.AddSource("S1", ts_kind, config.skew_bound);
    sources.push_back(fast);
    auto* f1 = builder.AddRandomDropFilter("F1", config.selectivity,
                                           config.seed * 7 + 11);
    builder.Connect(fast, f1);
    Union* u = builder.AddUnion("U", ordered, config.use_tsm_registers);
    builder.Connect(f1, u);
    for (int i = 0; i < config.num_slow_streams; ++i) {
      Source* slow = builder.AddSource(StrFormat("S%d", i + 2), ts_kind,
                                       config.skew_bound);
      sources.push_back(slow);
      auto* f = builder.AddRandomDropFilter(StrFormat("F%d", i + 2),
                                            config.selectivity,
                                            config.seed * 7 + 13 +
                                                static_cast<uint64_t>(i));
      builder.Connect(slow, f);
      builder.Connect(f, u);
    }
    sink = builder.AddSink("OUT");
    builder.Connect(u, sink);
    measured = u;
  } else if (config.shape == QueryShape::kJoin) {
    Source* fast = builder.AddSource("S1", ts_kind, config.skew_bound);
    Source* slow = builder.AddSource("S2", ts_kind, config.skew_bound);
    sources.push_back(fast);
    sources.push_back(slow);
    auto* f1 = builder.AddRandomDropFilter("F1", config.selectivity,
                                           config.seed * 7 + 11);
    auto* f2 = builder.AddRandomDropFilter("F2", config.selectivity,
                                           config.seed * 7 + 13);
    builder.Connect(fast, f1);
    builder.Connect(slow, f2);
    WindowJoin* join = builder.AddWindowJoin(
        "J", config.join_window, config.join_window,
        /*predicate=*/nullptr, ordered);
    builder.Connect(f1, join);
    builder.Connect(f2, join);
    sink = builder.AddSink("OUT");
    builder.Connect(join, sink);
    measured = join;
  } else {  // kAggregate
    // A busy side component shares the scheduler: every one of its
    // activations gives the executor a chance to resume the aggregate's
    // pending backtrack and close due windows (on-demand ETS is driven by
    // execution, so an otherwise-idle DSMS cannot close windows by itself —
    // see DESIGN.md).
    Source* side = builder.AddSource("SIDE", ts_kind, config.skew_bound);
    Sink* side_sink = builder.AddSink("SIDE_OUT");
    builder.Connect(side, side_sink);
    sources.push_back(side);

    Source* slow = builder.AddSource("S1", ts_kind, config.skew_bound);
    sources.push_back(slow);
    auto* f1 = builder.AddRandomDropFilter("F1", config.selectivity,
                                           config.seed * 7 + 11);
    builder.Connect(slow, f1);
    WindowAggregate* agg = builder.AddWindowAggregate(
        "AGG", AggKind::kCount, /*field=*/0, config.agg_window,
        config.agg_slide);
    builder.Connect(f1, agg);
    sink = builder.AddSink("OUT");
    builder.Connect(agg, sink);
    measured = agg;
  }

  for (Source* source : sources) {
    source->set_timestamp_granularity(config.timestamp_granularity);
  }

  Result<std::unique_ptr<QueryGraph>> graph_or = builder.Build();
  DSMS_CHECK_OK(graph_or.status());
  std::unique_ptr<QueryGraph> graph = std::move(graph_or).value();
  if (config.buffer_capacity > 0) {
    graph->SetBufferBound(config.buffer_capacity, config.overload);
  }
  if (!config.state_spill_dir.empty() || config.state_mem_budget > 0) {
    StorageConfig storage_config;
    storage_config.mem_budget = config.state_mem_budget;
    storage_config.spill_dir = config.state_spill_dir;
    storage_config.granularity = config.state_granularity;
    storage_config.overload = config.overload;
    DSMS_CHECK_OK(graph->ConfigureStateStore(storage_config));
  }

  ExecConfig exec_config;
  exec_config.costs = config.costs;
  exec_config.ets.mode = config.kind == ScenarioKind::kOnDemandEts
                             ? EtsMode::kOnDemand
                             : EtsMode::kNone;
  exec_config.ets.min_interval = config.ets_min_interval;
  exec_config.lease = config.lease;
  exec_config.scheduler = config.scheduler;
  exec_config.batch_size = config.batch_size;
  exec_config.shards = config.shards;
  exec_config.shard_mode = config.shard_mode;
  exec_config.shard_seed = config.seed;

  VirtualClock clock;
  std::unique_ptr<Tracer> tracer;
  if (!config.trace_path.empty()) {
    tracer = std::make_unique<Tracer>(&clock, config.trace_capacity);
    exec_config.tracer = tracer.get();
  }
  // MakeExecutor refuses shards > 1 with a non-DFS executor: a config error.
  Result<std::unique_ptr<Executor>> made =
      MakeExecutor(graph.get(), &clock, exec_config, config.executor,
                   config.rr_quantum);
  DSMS_CHECK_OK(made.status());
  std::unique_ptr<Executor> executor = std::move(*made);

  // Self-check every delivery for timestamp-order violations; the paper's
  // operators are order-preserving by construction, so any violation is an
  // implementation bug worth failing loudly in tests. The same callback
  // folds every delivered tuple into the sink-output digest — the oracle
  // the batch-equivalence suite compares against the scalar path.
  uint64_t order_violations = 0;
  auto sink_digest = std::make_shared<FnvDigest>();
  auto last_ts = std::make_shared<Timestamp>(kMinTimestamp);
  sink->set_callback([last_ts, &order_violations, sink_digest,
                      ordered](const Tuple& t, Timestamp) {
    if (ordered && t.has_timestamp()) {
      if (t.timestamp() < *last_ts) ++order_violations;
      *last_ts = t.timestamp();
    }
    sink_digest->MixTuple(t);
  });

  TraceRecorder trace;
  Simulation sim(graph.get(), executor.get(), &clock);
  sim.set_violation_policy(config.violations);
  if (tracer != nullptr) sim.AttachTracer(tracer.get());
  // The Simulation constructor owns listener replacement; the recorder must
  // compose with (not clobber) its metrics listeners, so attach afterwards.
  if (config.record_trace) graph->AddBufferListener(&trace);
  for (size_t i = 0; i < sources.size(); ++i) {
    // sources[0] is the fast stream in every shape (the side component for
    // kAggregate); all others are slow streams.
    std::unique_ptr<ArrivalProcess> process =
        i == 0 ? MakeFastProcess(config)
               : MakeSlowProcess(config, static_cast<int>(i));
    sim.AddFeed(sources[i], std::move(process), Simulation::SequencePayload(),
                /*jitter_seed=*/config.seed * 131 + i);
  }
  auto clamp_target = [&sources](int target) {
    if (target < 0) target = 0;
    if (target >= static_cast<int>(sources.size())) {
      target = static_cast<int>(sources.size()) - 1;
    }
    return static_cast<size_t>(target);
  };
  if (config.fault.enabled()) {
    sim.InjectFault(sources[clamp_target(config.fault_target)], config.fault,
                    /*run_seed=*/config.seed);
  }
  for (const FaultSpec& extra : config.extra_faults) {
    if (!extra.enabled()) continue;
    // Each extra fault aims at its own FaultSpec::source index; at most one
    // fault per source (a later injection replaces an earlier one).
    sim.InjectFault(sources[clamp_target(extra.source)], extra,
                    /*run_seed=*/config.seed);
  }
  if (config.kind == ScenarioKind::kPeriodicEts &&
      config.heartbeat_rate > 0.0) {
    Duration period = SecondsToDuration(1.0 / config.heartbeat_rate);
    if (period < 1) period = 1;
    for (size_t i = 0; i < sources.size(); ++i) {
      bool is_fast = i == 0;
      if (is_fast && !config.heartbeat_fast) continue;
      // Stagger phases so heartbeats on different streams do not collide.
      sim.AddHeartbeat(sources[i], period,
                       static_cast<Duration>(i) * (period / 7 + 1));
    }
  }

  sim.Run(config.horizon, config.warmup);

  ScenarioResult result;
  const LatencyRecorder& latency = sink->latency();
  result.mean_latency_ms = latency.mean_us() / 1000.0;
  result.p50_latency_ms = latency.histogram().Quantile(0.5) / 1000.0;
  result.p99_latency_ms = latency.p99_us() / 1000.0;
  result.max_latency_ms = static_cast<double>(latency.max_us()) / 1000.0;
  result.tuples_delivered = latency.count();
  result.peak_queue_total = sim.queue_tracker().peak_total();
  result.peak_queue_data = sim.queue_tracker().peak_data();
  if (const IdleWaitTracker* tracker =
          executor->idle_tracker(measured->id())) {
    result.idle_fraction = tracker->IdleFraction(0, clock.now());
    result.blocked_intervals =
        static_cast<uint64_t>(tracker->blocked_intervals());
  }
  result.ets_generated = executor->ets_generated();
  result.punctuation_steps = executor->stats().punctuation_steps;
  result.punctuation_eliminated = sink->punctuation_eliminated();
  result.order_violations = order_violations;
  result.buffer_order_violations = sim.order_validator().violations();
  result.fault_events = sim.fault_events();
  result.lease_expired_ets = executor->stats().lease_expired_ets;
  for (Source* source : sources) result.degraded |= source->degraded();
  result.shed_tuples = graph->TotalShedTuples();
  result.quarantined = sim.order_validator().quarantined();
  result.dropped_late = sim.order_validator().dropped();
  if (auto* iwp = dynamic_cast<IwpOperator*>(measured)) {
    result.late_absorbed = iwp->late_data_absorbed();
  }
  result.max_buffer_hwm = static_cast<uint64_t>(graph->MaxBufferHighWaterMark());
  {
    const FrontierTracker& frontier = *executor->frontier();
    result.frontier_violations = frontier.violations();
    result.frontier_lease_expiries = frontier.lease_expiries();
    result.frontier_revivals = frontier.revivals();
    result.frontier_quarantines = frontier.quarantines();
    result.frontier_transitions = frontier.transitions();
    result.frontier_quarantined_now =
        frontier.CountInState(SourceHealth::kQuarantined);
    result.frontier_degraded_now =
        frontier.num_participants() -
        frontier.CountInState(SourceHealth::kHealthy);
    result.frontier_bound = frontier.CheckpointFrontier();
  }
  if (auto* sharded = dynamic_cast<ShardedExecutor*>(executor.get())) {
    result.shards_used = static_cast<uint64_t>(sharded->num_shards());
    result.shard_hops = sharded->shard_hops();
    result.shard_epochs = sharded->epochs();
  }
  result.trace_hash = trace.hash();
  result.trace_events = trace.events();
  result.sink_digest = sink_digest->hash();
  if (graph->state_store() != nullptr) {
    result.storage = graph->state_store()->stats();
  }
  result.exec = executor->stats();

  if (tracer != nullptr) {
    std::ofstream out(config.trace_path);
    if (out.good()) {
      tracer->WriteChromeTrace(out);
    } else {
      DSMS_LOG(Error) << "cannot write trace to " << config.trace_path;
    }
  }
  return result;
}

void ScenarioResult::PublishTo(MetricsRegistry* registry,
                               const std::string& prefix) const {
  DSMS_CHECK(registry != nullptr);
  registry->SetGauge(prefix + ".latency.mean_ms", mean_latency_ms);
  registry->SetGauge(prefix + ".latency.p50_ms", p50_latency_ms);
  registry->SetGauge(prefix + ".latency.p99_ms", p99_latency_ms);
  registry->SetGauge(prefix + ".latency.max_ms", max_latency_ms);
  registry->SetCounter(prefix + ".tuples_delivered", tuples_delivered);
  registry->SetGauge(prefix + ".peak_queue_total",
                     static_cast<double>(peak_queue_total));
  registry->SetGauge(prefix + ".peak_queue_data",
                     static_cast<double>(peak_queue_data));
  registry->SetGauge(prefix + ".idle_fraction", idle_fraction);
  registry->SetCounter(prefix + ".blocked_intervals", blocked_intervals);
  registry->SetCounter(prefix + ".ets_generated", ets_generated);
  registry->SetCounter(prefix + ".punctuation_steps", punctuation_steps);
  registry->SetCounter(prefix + ".punctuation_eliminated",
                       punctuation_eliminated);
  registry->SetCounter(prefix + ".order_violations", order_violations);
  registry->SetCounter(prefix + ".buffer_order_violations",
                       buffer_order_violations);
  registry->SetCounter(prefix + ".fault_events", fault_events);
  registry->SetGauge(prefix + ".degraded", degraded ? 1.0 : 0.0);
  registry->SetCounter(prefix + ".shed_tuples", shed_tuples);
  registry->SetCounter(prefix + ".quarantined", quarantined);
  registry->SetCounter(prefix + ".dropped_late", dropped_late);
  registry->SetCounter(prefix + ".late_absorbed", late_absorbed);
  registry->SetCounter(prefix + ".max_buffer_hwm", max_buffer_hwm);
  registry->SetCounter(prefix + ".frontier.violations", frontier_violations);
  registry->SetCounter(prefix + ".frontier.lease_expiries",
                       frontier_lease_expiries);
  registry->SetCounter(prefix + ".frontier.revivals", frontier_revivals);
  registry->SetCounter(prefix + ".frontier.quarantines",
                       frontier_quarantines);
  registry->SetCounter(prefix + ".frontier.transitions",
                       frontier_transitions);
  registry->SetGauge(prefix + ".frontier.quarantined_now",
                     static_cast<double>(frontier_quarantined_now));
  registry->SetGauge(prefix + ".frontier.degraded_now",
                     static_cast<double>(frontier_degraded_now));
  registry->SetGauge(prefix + ".frontier.bound",
                     static_cast<double>(frontier_bound));
  registry->SetGauge(prefix + ".exec.shard.shards",
                     static_cast<double>(shards_used));
  registry->SetCounter(prefix + ".exec.shard.hops", shard_hops);
  registry->SetCounter(prefix + ".exec.shard.epochs", shard_epochs);
  storage.PublishTo(registry, prefix + ".storage");
  exec.PublishTo(registry, prefix + ".exec");
}

}  // namespace dsms

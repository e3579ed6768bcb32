#include "sim/experiment_spec.h"

#include <climits>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/value.h"
#include "exec/dfs_executor.h"
#include "exec/greedy_memory_executor.h"
#include "exec/round_robin_executor.h"
#include "metrics/stats_report.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/arrival_process.h"
#include "sim/simulation.h"
#include "sim/trace_loader.h"

namespace dsms {
namespace {

/// Experiment statements; every other line belongs to the plan.
const StatementSyntax kStatementSyntax[] = {
    {"feed",
     true,
     {"process", "rate", "burst_rate", "idle_rate", "burst_len", "idle_len",
      "trace", "seed", "payload", "lo", "hi", "fields"}},
    {"heartbeat", true, {"period", "phase"}},
    {"fault",
     true,
     {"kind", "start", "duration", "factor", "prob", "magnitude", "period",
      "seed"}},
    {"run",
     false,
     {"horizon", "warmup", "ets_min_interval", "ets", "executor", "quantum",
      "lease", "buffer_cap", "overload", "violations"},
     /*unique=*/true},
    {"batch", false, {"size"}, /*unique=*/true},
    {"trace", false, {"path", "capacity"}, /*unique=*/true},
    {"wal",
     false,
     {"dir", "sync", "sync_interval_bytes", "segment_bytes"},
     /*unique=*/true},
    {"checkpoint", false, {"horizon", "keep"}, /*unique=*/true},
    {"crash", false, {"at"}, /*unique=*/true},
    {"state",
     false,
     {"mem_budget", "spill_dir", "granularity"},
     /*unique=*/true},
    {"netfault",
     false,
     {"kind", "at", "seed", "count", "chunk", "gap", "bytes", "stale"}},
};

Status ParseFeed(const Statement& s, FeedSpec* feed) {
  feed->source = s.name;
  if (s.args.count("trace") > 0) {
    feed->kind = FeedSpec::Kind::kTrace;
    feed->trace_path = s.args.at("trace");
  } else {
    auto it = s.args.find("process");
    std::string process = it == s.args.end() ? "poisson" : it->second;
    if (process == "poisson") {
      feed->kind = FeedSpec::Kind::kPoisson;
      DSMS_RETURN_IF_ERROR(s.GetDouble("rate", 0, true, &feed->rate));
    } else if (process == "constant") {
      feed->kind = FeedSpec::Kind::kConstant;
      DSMS_RETURN_IF_ERROR(s.GetDouble("rate", 0, true, &feed->rate));
    } else if (process == "bursty") {
      feed->kind = FeedSpec::Kind::kBursty;
      DSMS_RETURN_IF_ERROR(
          s.GetDouble("burst_rate", 100, false, &feed->burst_rate));
      DSMS_RETURN_IF_ERROR(
          s.GetDouble("idle_rate", 1, false, &feed->idle_rate));
      DSMS_RETURN_IF_ERROR(s.GetDuration("burst_len", 200 * kMillisecond,
                                         false, &feed->burst_length));
      DSMS_RETURN_IF_ERROR(
          s.GetDuration("idle_len", 5 * kSecond, false, &feed->idle_length));
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: unknown process '%s'", s.line, process.c_str()));
    }
  }
  int64_t seed = 1;
  DSMS_RETURN_IF_ERROR(
      s.GetInt("seed", 1, false, INT64_MIN, INT64_MAX, &seed));
  feed->seed = static_cast<uint64_t>(seed);

  auto payload = s.args.find("payload");
  if (payload != s.args.end() && payload->second == "randint") {
    feed->payload = FeedSpec::Payload::kRandInt;
    DSMS_RETURN_IF_ERROR(s.GetInt("lo", 0, false, INT64_MIN, INT64_MAX,
                                  &feed->randint_lo));
    DSMS_RETURN_IF_ERROR(s.GetInt("hi", 100, false, INT64_MIN, INT64_MAX,
                                  &feed->randint_hi));
    int64_t fields = 1;
    DSMS_RETURN_IF_ERROR(s.GetInt("fields", 1, false, 1, INT_MAX, &fields));
    feed->payload_fields = static_cast<int>(fields);
    if (feed->randint_lo > feed->randint_hi) {
      return InvalidArgumentError(
          StrFormat("line %d: bad randint payload spec", s.line));
    }
  } else if (payload != s.args.end() && payload->second != "seq") {
    return InvalidArgumentError(StrFormat("line %d: unknown payload '%s'",
                                          s.line, payload->second.c_str()));
  }
  return OkStatus();
}

Status ParseFault(const Statement& s, FaultTargetSpec* fault) {
  fault->source = s.name;
  auto kind = s.args.find("kind");
  if (kind == s.args.end()) {
    return InvalidArgumentError(StrFormat("line %d: missing kind=", s.line));
  }
  Result<FaultKind> parsed = ParseFaultKind(kind->second);
  if (!parsed.ok()) {
    return InvalidArgumentError(
        StrFormat("line %d: %s", s.line, parsed.status().message().c_str()));
  }
  fault->spec.kind = *parsed;
  DSMS_RETURN_IF_ERROR(
      s.GetDuration("start", fault->spec.start, false, &fault->spec.start));
  DSMS_RETURN_IF_ERROR(s.GetDuration("duration", fault->spec.duration, false,
                                     &fault->spec.duration));
  int64_t factor = fault->spec.burst_factor;
  DSMS_RETURN_IF_ERROR(
      s.GetInt("factor", factor, false, 1, INT_MAX, &factor));
  fault->spec.burst_factor = static_cast<int>(factor);
  DSMS_RETURN_IF_ERROR(s.GetDouble("prob", fault->spec.probability,
                                   false, &fault->spec.probability));
  DSMS_RETURN_IF_ERROR(s.GetDuration("magnitude", fault->spec.magnitude,
                                     false, &fault->spec.magnitude));
  DSMS_RETURN_IF_ERROR(s.GetDuration("period", fault->spec.punct_period,
                                     false, &fault->spec.punct_period));
  if (fault->spec.punct_period <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: period must be positive", s.line));
  }
  int64_t seed = static_cast<int64_t>(fault->spec.seed);
  DSMS_RETURN_IF_ERROR(
      s.GetInt("seed", seed, false, INT64_MIN, INT64_MAX, &seed));
  fault->spec.seed = static_cast<uint64_t>(seed);
  return OkStatus();
}

Status ParseRun(const Statement& s, RunSpec* run) {
  DSMS_RETURN_IF_ERROR(
      s.GetDuration("horizon", 600 * kSecond, false, &run->horizon));
  DSMS_RETURN_IF_ERROR(s.GetDuration("warmup", 0, false, &run->warmup));
  DSMS_RETURN_IF_ERROR(
      s.GetDuration("ets_min_interval", 0, false, &run->ets_min_interval));
  auto ets = s.args.find("ets");
  if (ets != s.args.end()) {
    if (ets->second == "on-demand") {
      run->ets = EtsMode::kOnDemand;
    } else if (ets->second == "none") {
      run->ets = EtsMode::kNone;
    } else {
      return InvalidArgumentError(
          StrFormat("line %d: bad ets= '%s'", s.line, ets->second.c_str()));
    }
  }
  auto executor = s.args.find("executor");
  if (executor != s.args.end()) {
    if (executor->second == "dfs") {
      run->executor = ExecutorKind::kDfs;
    } else if (executor->second == "round-robin") {
      run->executor = ExecutorKind::kRoundRobin;
    } else if (executor->second == "greedy-memory") {
      run->executor = ExecutorKind::kGreedyMemory;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad executor= '%s'", s.line, executor->second.c_str()));
    }
  }
  int64_t quantum = 8;
  DSMS_RETURN_IF_ERROR(s.GetInt("quantum", 8, false, 1, INT_MAX, &quantum));
  run->quantum = static_cast<int>(quantum);
  DSMS_RETURN_IF_ERROR(s.GetDuration("lease", 0, false, &run->lease));
  if (run->lease < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: lease must be >= 0", s.line));
  }
  int64_t buffer_cap = 0;
  DSMS_RETURN_IF_ERROR(
      s.GetInt("buffer_cap", 0, false, 0, INT64_MAX, &buffer_cap));
  run->buffer_cap = static_cast<size_t>(buffer_cap);
  auto overload = s.args.find("overload");
  if (overload != s.args.end()) {
    if (overload->second == "grow") {
      run->overload = OverloadPolicy::kGrow;
    } else if (overload->second == "block") {
      run->overload = OverloadPolicy::kBlockSource;
    } else if (overload->second == "shed") {
      run->overload = OverloadPolicy::kShedOldest;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad overload= '%s' (expected grow|block|shed)", s.line,
          overload->second.c_str()));
    }
  }
  auto violations = s.args.find("violations");
  if (violations != s.args.end()) {
    if (violations->second == "count") {
      run->violations = ViolationPolicy::kCount;
    } else if (violations->second == "drop") {
      run->violations = ViolationPolicy::kDropLate;
    } else if (violations->second == "quarantine") {
      run->violations = ViolationPolicy::kQuarantine;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad violations= '%s' (expected count|drop|quarantine)",
          s.line, violations->second.c_str()));
    }
  }
  return OkStatus();
}

Status ParseBatch(const Statement& s, RunSpec* run) {
  int64_t size = 0;
  DSMS_RETURN_IF_ERROR(s.GetInt("size", 0, true, 1, INT64_MAX, &size));
  run->batch = static_cast<size_t>(size);
  return OkStatus();
}

Status ParseTrace(const Statement& s, TraceSpec* trace) {
  auto path = s.args.find("path");
  if (path == s.args.end() || path->second.empty()) {
    return InvalidArgumentError(StrFormat("line %d: missing path=", s.line));
  }
  trace->path = path->second;
  int64_t capacity = static_cast<int64_t>(trace->capacity);
  DSMS_RETURN_IF_ERROR(
      s.GetInt("capacity", capacity, false, 1, INT64_MAX, &capacity));
  trace->capacity = static_cast<size_t>(capacity);
  return OkStatus();
}

Status ParseWal(const Statement& s, RecoverySpec* recovery) {
  recovery->wal = true;
  auto dir = s.args.find("dir");
  if (dir == s.args.end() || dir->second.empty()) {
    return InvalidArgumentError(StrFormat("line %d: missing dir=", s.line));
  }
  recovery->dir = dir->second;
  auto sync = s.args.find("sync");
  if (sync != s.args.end()) {
    if (sync->second == "none") {
      recovery->sync = WalSyncPolicy::kNone;
    } else if (sync->second == "interval") {
      recovery->sync = WalSyncPolicy::kInterval;
    } else if (sync->second == "every_frame") {
      recovery->sync = WalSyncPolicy::kEveryFrame;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad sync= '%s' (expected none|interval|every_frame)",
          s.line, sync->second.c_str()));
    }
  }
  int64_t sync_interval =
      static_cast<int64_t>(recovery->sync_interval_bytes);
  DSMS_RETURN_IF_ERROR(s.GetInt("sync_interval_bytes", sync_interval, false,
                                1, INT64_MAX, &sync_interval));
  recovery->sync_interval_bytes = static_cast<uint64_t>(sync_interval);
  int64_t segment = static_cast<int64_t>(recovery->segment_bytes);
  DSMS_RETURN_IF_ERROR(
      s.GetInt("segment_bytes", segment, false, 1, INT64_MAX, &segment));
  recovery->segment_bytes = static_cast<uint64_t>(segment);
  return OkStatus();
}

Status ParseCheckpoint(const Statement& s, RecoverySpec* recovery) {
  recovery->checkpoint = true;
  DSMS_RETURN_IF_ERROR(
      s.GetDuration("horizon", 0, false, &recovery->checkpoint_horizon));
  if (recovery->checkpoint_horizon <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: missing or non-positive horizon=", s.line));
  }
  int64_t keep = recovery->keep;
  DSMS_RETURN_IF_ERROR(s.GetInt("keep", keep, false, 1, INT_MAX, &keep));
  recovery->keep = static_cast<int>(keep);
  return OkStatus();
}

/// Parses "4096", "64k", "16m", "2g" (binary multiples, suffix
/// case-insensitive) into bytes.
bool ParseByteSize(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  std::string digits = text;
  uint64_t multiplier = 1;
  const char last = digits.back();
  if (last == 'k' || last == 'K') {
    multiplier = 1024;
  } else if (last == 'm' || last == 'M') {
    multiplier = 1024 * 1024;
  } else if (last == 'g' || last == 'G') {
    multiplier = 1024 * 1024 * 1024;
  }
  if (multiplier != 1) digits.pop_back();
  int64_t value = 0;
  if (!ParseInt64(digits, &value) || value < 0) return false;
  *out = static_cast<uint64_t>(value) * multiplier;
  return true;
}

Status ParseState(const Statement& s, StorageSpec* storage) {
  storage->enabled = true;
  auto budget = s.args.find("mem_budget");
  if (budget == s.args.end() ||
      !ParseByteSize(budget->second, &storage->mem_budget) ||
      storage->mem_budget == 0) {
    return InvalidArgumentError(StrFormat(
        "line %d: missing or bad mem_budget= (bytes, k/m/g suffix ok)",
        s.line));
  }
  auto dir = s.args.find("spill_dir");
  if (dir == s.args.end() || dir->second.empty()) {
    return InvalidArgumentError(
        StrFormat("line %d: missing spill_dir=", s.line));
  }
  storage->spill_dir = dir->second;
  DSMS_RETURN_IF_ERROR(
      s.GetDuration("granularity", kSecond, false, &storage->granularity));
  if (storage->granularity <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: granularity must be positive", s.line));
  }
  return OkStatus();
}

Status ParseCrash(const Statement& s, RecoverySpec* recovery) {
  Duration at = 0;
  DSMS_RETURN_IF_ERROR(s.GetDuration("at", 0, false, &at));
  if (at <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: missing or non-positive at=", s.line));
  }
  recovery->crash_at = at;
  return OkStatus();
}

Status ParseNetFault(const Statement& s, NetFaultSpec* fault) {
  auto kind = s.args.find("kind");
  if (kind == s.args.end()) {
    return InvalidArgumentError(
        StrFormat("line %d: missing kind=", s.line));
  }
  std::optional<NetFaultKind> parsed = ParseNetFaultKind(kind->second);
  if (!parsed.has_value() || *parsed == NetFaultKind::kNone) {
    return InvalidArgumentError(StrFormat(
        "line %d: bad kind= '%s' (expected split|coalesce|slowloris|rst|"
        "half-open|reconnect-storm|dup-hello|garbage)",
        s.line, kind->second.c_str()));
  }
  fault->kind = *parsed;
  Duration at = 0;
  DSMS_RETURN_IF_ERROR(s.GetDuration("at", 0, false, &at));
  if (at < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: at must be non-negative", s.line));
  }
  fault->at = at;
  int64_t seed = static_cast<int64_t>(fault->seed);
  DSMS_RETURN_IF_ERROR(
      s.GetInt("seed", seed, false, INT64_MIN, INT64_MAX, &seed));
  fault->seed = static_cast<uint64_t>(seed);
  int64_t count = fault->count;
  DSMS_RETURN_IF_ERROR(s.GetInt("count", count, false, 1, INT_MAX, &count));
  fault->count = static_cast<int>(count);
  int64_t chunk = static_cast<int64_t>(fault->chunk);
  DSMS_RETURN_IF_ERROR(
      s.GetInt("chunk", chunk, false, 0, INT64_MAX, &chunk));
  fault->chunk = static_cast<size_t>(chunk);
  DSMS_RETURN_IF_ERROR(s.GetDuration("gap", fault->gap, false, &fault->gap));
  if (fault->gap < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: gap must be non-negative", s.line));
  }
  int64_t bytes = static_cast<int64_t>(fault->bytes);
  DSMS_RETURN_IF_ERROR(
      s.GetInt("bytes", bytes, false, 1, INT64_MAX, &bytes));
  fault->bytes = static_cast<size_t>(bytes);
  int64_t stale = fault->stale;
  DSMS_RETURN_IF_ERROR(s.GetInt("stale", stale, false, 0, INT_MAX, &stale));
  fault->stale = static_cast<int>(stale);
  return OkStatus();
}

}  // namespace

Simulation::PayloadFn MakeFeedPayload(const FeedSpec& feed) {
  if (feed.payload == FeedSpec::Payload::kSequence) {
    return Simulation::SequencePayload();
  }
  auto rng = std::make_shared<Pcg32>(feed.seed * 977 + 5);
  int64_t lo = feed.randint_lo;
  int64_t hi = feed.randint_hi;
  int fields = feed.payload_fields;
  return [rng, lo, hi, fields](uint64_t, Timestamp) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(fields));
    for (int i = 0; i < fields; ++i) values.emplace_back(rng->NextInt(lo, hi));
    return values;
  };
}

Result<std::unique_ptr<ArrivalProcess>> MakeArrivalProcess(
    const FeedSpec& feed) {
  switch (feed.kind) {
    case FeedSpec::Kind::kPoisson:
      if (feed.rate <= 0) {
        return InvalidArgumentError("feed " + feed.source +
                                    ": rate must be positive");
      }
      return std::unique_ptr<ArrivalProcess>(
          std::make_unique<PoissonProcess>(feed.rate, feed.seed));
    case FeedSpec::Kind::kConstant:
      if (feed.rate <= 0) {
        return InvalidArgumentError("feed " + feed.source +
                                    ": rate must be positive");
      }
      return std::unique_ptr<ArrivalProcess>(
          std::make_unique<ConstantRateProcess>(feed.rate));
    case FeedSpec::Kind::kBursty:
      return std::unique_ptr<ArrivalProcess>(std::make_unique<BurstyProcess>(
          feed.burst_rate, feed.idle_rate, feed.burst_length,
          feed.idle_length, feed.seed));
    case FeedSpec::Kind::kTrace: {
      Result<std::vector<Timestamp>> trace =
          LoadArrivalTrace(feed.trace_path);
      if (!trace.ok()) return trace.status();
      return std::unique_ptr<ArrivalProcess>(
          std::make_unique<TraceProcess>(*trace));
    }
  }
  return InternalError("unreachable feed kind");
}

Result<Experiment> ParseExperiment(std::string_view text) {
  return ParseExperiment(text, /*require_feeds=*/true);
}

Result<Experiment> ParseExperiment(std::string_view text,
                                   bool require_feeds) {
  std::vector<std::string> plan_lines;
  std::map<std::string_view, std::vector<Statement>> statements;

  int line_number = 0;
  for (const std::string& raw_line : StrSplit(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    const StatementSyntax* syntax =
        FindStatementSyntax(kStatementSyntax, stripped);
    if (syntax == nullptr) {
      plan_lines.push_back(raw_line);
      continue;
    }
    Statement statement;
    DSMS_RETURN_IF_ERROR(
        ParseStatement(line_number, stripped, *syntax, &statement));
    statements[syntax->type].push_back(std::move(statement));
  }
  for (const StatementSyntax& syntax : kStatementSyntax) {
    const std::vector<Statement>& found = statements[syntax.type];
    if (syntax.unique && found.size() > 1) {
      return InvalidArgumentError(
          StrFormat("line %d: duplicate %s statement", found[1].line,
                    std::string(syntax.type).c_str()));
    }
  }
  // The statement of a unique type, or nullptr when the text has none.
  auto only = [&statements](std::string_view type) -> const Statement* {
    const std::vector<Statement>& found = statements[type];
    return found.empty() ? nullptr : &found.front();
  };

  Result<ParsedPlan> plan = ParsePlan(StrJoin(plan_lines, "\n"));
  if (!plan.ok()) return plan.status();

  Experiment experiment;
  experiment.plan = std::move(*plan);

  auto check_stream = [&experiment](const Statement& s) -> Status {
    Operator* op = experiment.plan.Find(s.name);
    if (op == nullptr || dynamic_cast<Source*>(op) == nullptr) {
      return InvalidArgumentError(StrFormat(
          "line %d: '%s' does not name a stream", s.line, s.name.c_str()));
    }
    return OkStatus();
  };

  for (const Statement& s : statements["feed"]) {
    DSMS_RETURN_IF_ERROR(check_stream(s));
    FeedSpec feed;
    DSMS_RETURN_IF_ERROR(ParseFeed(s, &feed));
    experiment.feeds.push_back(std::move(feed));
  }
  for (const Statement& s : statements["heartbeat"]) {
    DSMS_RETURN_IF_ERROR(check_stream(s));
    HeartbeatSpec heartbeat;
    heartbeat.source = s.name;
    DSMS_RETURN_IF_ERROR(
        s.GetDuration("period", kSecond, false, &heartbeat.period));
    if (heartbeat.period <= 0) {
      return InvalidArgumentError(
          StrFormat("line %d: period must be positive", s.line));
    }
    DSMS_RETURN_IF_ERROR(s.GetDuration("phase", 0, false, &heartbeat.phase));
    experiment.heartbeats.push_back(heartbeat);
  }
  for (const Statement& s : statements["fault"]) {
    DSMS_RETURN_IF_ERROR(check_stream(s));
    FaultTargetSpec fault;
    fault.source = s.name;
    DSMS_RETURN_IF_ERROR(ParseFault(s, &fault));
    experiment.faults.push_back(std::move(fault));
  }
  if (const Statement* s = only("run")) {
    DSMS_RETURN_IF_ERROR(ParseRun(*s, &experiment.run));
  }
  if (const Statement* s = only("batch")) {
    DSMS_RETURN_IF_ERROR(ParseBatch(*s, &experiment.run));
  }
  if (const Statement* s = only("trace")) {
    DSMS_RETURN_IF_ERROR(ParseTrace(*s, &experiment.trace));
  }
  if (const Statement* s = only("wal")) {
    DSMS_RETURN_IF_ERROR(ParseWal(*s, &experiment.recovery));
  }
  if (const Statement* s = only("checkpoint")) {
    DSMS_RETURN_IF_ERROR(ParseCheckpoint(*s, &experiment.recovery));
    if (!experiment.recovery.wal) {
      return InvalidArgumentError(StrFormat(
          "line %d: checkpoint requires a wal statement", s->line));
    }
  }
  if (const Statement* s = only("crash")) {
    DSMS_RETURN_IF_ERROR(ParseCrash(*s, &experiment.recovery));
  }
  if (const Statement* s = only("state")) {
    DSMS_RETURN_IF_ERROR(ParseState(*s, &experiment.storage));
  }
  for (const Statement& s : statements["netfault"]) {
    NetFaultSpec fault;
    DSMS_RETURN_IF_ERROR(ParseNetFault(s, &fault));
    experiment.netfaults.push_back(fault);
  }
  if (require_feeds && experiment.feeds.empty()) {
    return InvalidArgumentError("experiment declares no feeds");
  }
  return experiment;
}

ExecConfig ExecConfigForRun(const RunSpec& run) {
  ExecConfig config;
  config.ets.mode = run.ets;
  config.ets.min_interval = run.ets_min_interval;
  config.lease.duration = run.lease;
  config.batch_size = run.batch;
  return config;
}

std::unique_ptr<Executor> MakeExecutor(QueryGraph* graph, VirtualClock* clock,
                                       const ExecConfig& config,
                                       ExecutorKind kind, int quantum) {
  switch (kind) {
    case ExecutorKind::kDfs:
      return std::make_unique<DfsExecutor>(graph, clock, config);
    case ExecutorKind::kRoundRobin:
      return std::make_unique<RoundRobinExecutor>(graph, clock, config,
                                                  quantum);
    case ExecutorKind::kGreedyMemory:
      return std::make_unique<GreedyMemoryExecutor>(graph, clock, config);
  }
  DSMS_CHECK(false);  // Unreachable: every ExecutorKind is handled above.
  return nullptr;
}

StorageConfig StorageConfigForSpec(const StorageSpec& storage,
                                   OverloadPolicy overload) {
  StorageConfig config;
  config.mem_budget = storage.mem_budget;
  config.spill_dir = storage.spill_dir;
  config.granularity = storage.granularity;
  config.overload = overload;
  return config;
}

RecoveryOptions RecoveryOptionsForSpec(const RecoverySpec& recovery) {
  RecoveryOptions options;
  options.dir = recovery.dir;
  options.wal = recovery.wal;
  options.sync = recovery.sync;
  options.sync_interval_bytes = recovery.sync_interval_bytes;
  options.segment_bytes = recovery.segment_bytes;
  options.checkpoint = recovery.checkpoint;
  options.checkpoint_horizon = recovery.checkpoint_horizon;
  options.keep = recovery.keep;
  return options;
}

ExperimentReport CollectExperimentReport(const QueryGraph& graph,
                                         const Executor& executor,
                                         Timestamp end_time,
                                         const QueueSizeTracker& queues,
                                         const OrderValidator& validator) {
  ExperimentReport report;
  report.end_time = end_time;
  for (Sink* sink : graph.sinks()) {
    SinkReport sr;
    sr.name = sink->name();
    sr.tuples = sink->data_delivered();
    sr.mean_latency_ms = sink->latency().mean_ms();
    sr.p99_latency_ms = sink->latency().p99_us() / 1000.0;
    report.sinks.push_back(std::move(sr));
  }
  report.peak_queue_total = queues.peak_total();
  report.ets_generated = executor.ets_generated();
  report.lease_expired_ets = executor.stats().lease_expired_ets;
  for (Source* source : graph.sources()) {
    if (source->degraded()) report.degraded = true;
  }
  report.shed_tuples = graph.TotalShedTuples();
  report.quarantined = validator.quarantined();
  report.dropped_late = validator.dropped();
  report.buffer_order_violations = validator.violations();
  report.max_buffer_hwm = graph.MaxBufferHighWaterMark();
  if (graph.state_store() != nullptr) {
    report.storage = graph.state_store()->stats();
  }
  report.exec = executor.stats();
  report.operator_stats = OperatorStatsString(graph);
  report.robustness = RobustnessReportString(graph, &validator);
  return report;
}

Result<ExperimentReport> RunExperiment(Experiment* experiment) {
  QueryGraph* graph = experiment->plan.graph.get();
  if (graph == nullptr || !graph->validated()) {
    return FailedPreconditionError("experiment has no validated plan");
  }

  VirtualClock clock;
  std::unique_ptr<Tracer> tracer;
  if (!experiment->trace.path.empty()) {
    tracer = std::make_unique<Tracer>(&clock, experiment->trace.capacity);
  }
  ExecConfig config = ExecConfigForRun(experiment->run);
  config.tracer = tracer.get();
  if (experiment->run.buffer_cap > 0) {
    graph->SetBufferBound(experiment->run.buffer_cap,
                          experiment->run.overload);
  }
  if (experiment->storage.enabled && graph->state_store() == nullptr) {
    DSMS_RETURN_IF_ERROR(graph->ConfigureStateStore(
        StorageConfigForSpec(experiment->storage, experiment->run.overload)));
  }
  std::unique_ptr<Executor> executor =
      MakeExecutor(graph, &clock, config, experiment->run.executor,
                   experiment->run.quantum);

  Simulation sim(graph, executor.get(), &clock);
  if (tracer != nullptr) sim.AttachTracer(tracer.get());
  sim.set_violation_policy(experiment->run.violations);
  for (const FeedSpec& feed : experiment->feeds) {
    auto* source = dynamic_cast<Source*>(experiment->plan.Find(feed.source));
    DSMS_CHECK(source != nullptr);  // Checked during parse.
    Result<std::unique_ptr<ArrivalProcess>> process =
        MakeArrivalProcess(feed);
    if (!process.ok()) return process.status();
    sim.AddFeed(source, std::move(*process), MakeFeedPayload(feed),
                FeedJitterSeed(feed));
  }
  for (const HeartbeatSpec& heartbeat : experiment->heartbeats) {
    auto* source =
        dynamic_cast<Source*>(experiment->plan.Find(heartbeat.source));
    DSMS_CHECK(source != nullptr);
    sim.AddHeartbeat(source, heartbeat.period, heartbeat.phase);
  }
  for (const FaultTargetSpec& fault : experiment->faults) {
    auto* source =
        dynamic_cast<Source*>(experiment->plan.Find(fault.source));
    DSMS_CHECK(source != nullptr);
    if (IsDiskFault(fault.spec.kind) && graph->state_store() == nullptr) {
      return InvalidArgumentError(
          "disk faults require a state statement (no state store configured)");
    }
    sim.InjectFault(source, fault.spec);
  }

  sim.Run(experiment->run.horizon, experiment->run.warmup);

  ExperimentReport report =
      CollectExperimentReport(*graph, *executor, clock.now(),
                              sim.queue_tracker(), sim.order_validator());
  report.fault_events = sim.fault_events();

  if (tracer != nullptr) {
    std::ofstream out(experiment->trace.path,
                      std::ios::out | std::ios::trunc);
    if (out) {
      tracer->WriteChromeTrace(out);
    } else {
      DSMS_LOG(Error) << "cannot write trace to " << experiment->trace.path;
    }
  }
  return report;
}

void ExperimentReport::PublishTo(MetricsRegistry* registry) const {
  DSMS_CHECK(registry != nullptr);
  registry->SetGauge("experiment.end_time_s", DurationToSeconds(end_time));
  for (const SinkReport& sink : sinks) {
    const std::string prefix = "sink." + sink.name;
    registry->SetCounter(prefix + ".tuples", sink.tuples);
    registry->SetGauge(prefix + ".mean_latency_ms", sink.mean_latency_ms);
    registry->SetGauge(prefix + ".p99_latency_ms", sink.p99_latency_ms);
  }
  registry->SetCounter("experiment.peak_queue_total",
                       static_cast<uint64_t>(peak_queue_total));
  registry->SetCounter("experiment.ets_generated", ets_generated);
  registry->SetCounter("experiment.fault_events", fault_events);
  registry->SetGauge("experiment.degraded", degraded ? 1.0 : 0.0);
  registry->SetCounter("experiment.shed_tuples", shed_tuples);
  registry->SetCounter("experiment.quarantined", quarantined);
  registry->SetCounter("experiment.dropped_late", dropped_late);
  registry->SetCounter("experiment.buffer_order_violations",
                       buffer_order_violations);
  registry->SetCounter("experiment.max_buffer_hwm", max_buffer_hwm);
  storage.PublishTo(registry, "storage");
  exec.PublishTo(registry, "exec");
}

}  // namespace dsms

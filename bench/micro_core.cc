// Micro-benchmarks (google-benchmark) for the core data path: buffer
// operations, operator steps, TSM bookkeeping, and the plan parser. These
// measure the real CPU costs that the simulation's virtual cost model
// abstracts (see CostModel in exec/executor.h).

#include <benchmark/benchmark.h>

#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "exec/dfs_executor.h"
#include "graph/graph_builder.h"
#include "graph/plan_parser.h"
#include "metrics/histogram.h"
#include "operators/filter.h"
#include "operators/multiway_join.h"
#include "operators/union_op.h"
#include "operators/window_aggregate.h"
#include "operators/window_join.h"
#include "sim/experiment_spec.h"
#include "storage/state_store.h"

namespace dsms {
namespace {

void BM_StreamBufferPushPop(benchmark::State& state) {
  StreamBuffer buffer("b");
  Tuple tuple = Tuple::MakeData(1, {Value(int64_t{42})});
  for (auto _ : state) {
    buffer.Push(tuple);
    benchmark::DoNotOptimize(buffer.Pop());
  }
}
BENCHMARK(BM_StreamBufferPushPop);

void BM_Pcg32(benchmark::State& state) {
  Pcg32 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextUint32());
}
BENCHMARK(BM_Pcg32);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  Pcg32 rng(1);
  for (auto _ : state) histogram.Record(rng.NextInt(0, 1 << 20));
  benchmark::DoNotOptimize(histogram.mean());
}
BENCHMARK(BM_HistogramRecord);

void BM_FilterStep(benchmark::State& state) {
  StreamBuffer in("in");
  StreamBuffer out("out");
  Filter filter("f", [](const Tuple& t) {
    return t.value(0).int64_value() % 2 == 0;
  });
  filter.AddInput(&in);
  filter.AddOutput(&out);
  ManualExecContext ctx;
  int64_t i = 0;
  for (auto _ : state) {
    in.Push(Tuple::MakeData(i, {Value(i)}));
    benchmark::DoNotOptimize(filter.Step(ctx));
    while (!out.empty()) out.Pop();
    ++i;
  }
}
BENCHMARK(BM_FilterStep);

void BM_UnionStep(benchmark::State& state) {
  StreamBuffer in0("i0");
  StreamBuffer in1("i1");
  StreamBuffer out("out");
  Union u("u");
  u.AddInput(&in0);
  u.AddInput(&in1);
  u.AddOutput(&out);
  ManualExecContext ctx;
  Timestamp ts = 0;
  for (auto _ : state) {
    in0.Push(Tuple::MakeData(ts, {Value(ts)}));
    in1.Push(Tuple::MakeData(ts, {Value(ts)}));
    benchmark::DoNotOptimize(u.Step(ctx));
    benchmark::DoNotOptimize(u.Step(ctx));
    while (!out.empty()) out.Pop();
    ++ts;
  }
}
BENCHMARK(BM_UnionStep);

void BM_WindowJoinProbe(benchmark::State& state) {
  const int64_t window_tuples = state.range(0);
  StreamBuffer left("l");
  StreamBuffer right("r");
  StreamBuffer out("out");
  WindowJoin join("j", /*left_window=*/1 << 30, /*right_window=*/1 << 30,
                  WindowJoin::EquiJoin(0, 0));
  join.AddInput(&left);
  join.AddInput(&right);
  join.AddOutput(&out);
  ManualExecContext ctx;
  // Preload the right window with non-matching tuples.
  for (int64_t i = 0; i < window_tuples; ++i) {
    right.Push(Tuple::MakeData(i, {Value(int64_t{-1})}));
    left.Push(Tuple::MakeData(i, {Value(int64_t{-2})}));
    join.Step(ctx);
    join.Step(ctx);
  }
  Timestamp ts = window_tuples;
  for (auto _ : state) {
    // The punctuation raises the right input's TSM so the left tuple is at
    // τ and actually probes the window (otherwise the step would block).
    right.Push(Tuple::MakePunctuation(ts));
    left.Push(Tuple::MakeData(ts, {Value(int64_t{-3})}));
    join.Step(ctx);                            // absorb the punctuation
    benchmark::DoNotOptimize(join.Step(ctx));  // probe
    while (!out.empty()) out.Pop();
    ++ts;
  }
  state.SetItemsProcessed(state.iterations() * window_tuples);
}
BENCHMARK(BM_WindowJoinProbe)->Arg(16)->Arg(256)->Arg(4096);

// Indexed vs scan probes over the same window: the right window holds
// `window` rows spread uniformly over 64 keys and every iteration probes
// with a single key. With the equi fields declared, the StateTable's
// per-block hash index visits only the ~window/64 same-key rows; without
// the declaration the probe scans every row and re-checks the predicate.
// The emitted matches are identical either way — the index changes the
// visit set, never the output (tests/window_join_test.cc holds that line).
void BM_WindowJoinProbeKeyed(benchmark::State& state) {
  const int64_t window_tuples = state.range(0);
  const bool indexed = state.range(1) != 0;
  constexpr int64_t kKeys = 64;
  StreamBuffer left("l");
  StreamBuffer right("r");
  StreamBuffer out("out");
  WindowJoin join("j", /*left_window=*/1 << 30, /*right_window=*/1 << 30,
                  WindowJoin::EquiJoin(0, 0));
  if (indexed) join.set_equi_fields(0, 0);
  join.AddInput(&left);
  join.AddInput(&right);
  join.AddOutput(&out);
  ManualExecContext ctx;
  for (int64_t i = 0; i < window_tuples; ++i) {
    right.Push(Tuple::MakeData(i, {Value(i % kKeys)}));
    left.Push(Tuple::MakeData(i, {Value(kKeys)}));  // never matches
    join.Step(ctx);
    join.Step(ctx);
  }
  Timestamp ts = window_tuples;
  for (auto _ : state) {
    right.Push(Tuple::MakePunctuation(ts));
    left.Push(Tuple::MakeData(ts, {Value(int64_t{7})}));
    join.Step(ctx);                            // absorb the punctuation
    benchmark::DoNotOptimize(join.Step(ctx));  // probe
    while (!out.empty()) out.Pop();
    ++ts;
  }
  state.SetItemsProcessed(state.iterations() * window_tuples);
  state.SetLabel(indexed ? "indexed" : "scan");
}
BENCHMARK(BM_WindowJoinProbeKeyed)
    ->ArgNames({"window", "indexed"})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

// A keyed probe over a 10 s window of spilled 1 s blocks: 200 rows/s over
// 64 keys under a 4 KiB budget, so every block but the unsealed tail lives
// in a block file. Each probe reads only its key's slice of each spilled
// block (directory + slice, ~3 rows), never the whole block; the blocks
// stay spilled across iterations, so every iteration does the same I/O.
void BM_StateTableProbeSpilled(benchmark::State& state) {
  constexpr int64_t kKeys = 64;
  constexpr int64_t kRowsPerSecond = 200;
  constexpr int64_t kWindowSeconds = 10;
  StorageConfig config;
  config.mem_budget = 4096;
  config.spill_dir = (std::filesystem::temp_directory_path() /
                      ("dsms_bench_spill_" + std::to_string(::getpid())))
                         .string();
  config.granularity = kSecond;
  StateStore store(config);
  DSMS_CHECK_OK(store.Init());
  StateTable table;
  table.set_key_field(0);
  table.Bind(&store, nullptr);
  const int64_t rows = kRowsPerSecond * kWindowSeconds;
  for (int64_t i = 0; i < rows; ++i) {
    table.Append(Tuple::MakeData(i * kSecond / kRowsPerSecond,
                                 {Value(i % kKeys), Value(i)}));
    table.MaybeEvict();
  }
  const Timestamp hi = kWindowSeconds * kSecond;
  int64_t key = 0;
  uint64_t delivered = 0;
  for (auto _ : state) {
    const Value probe_key(key);
    table.Probe(0, hi, &probe_key, [&](const Tuple& t) {
      benchmark::DoNotOptimize(&t);
      ++delivered;
    });
    key = (key + 1) % kKeys;
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["spilled_blocks"] =
      static_cast<double>(table.num_spilled_blocks());
  state.counters["loads"] = static_cast<double>(store.stats().loads);
  table.Clear();  // unlinks the block files
  std::filesystem::remove_all(config.spill_dir);
}
BENCHMARK(BM_StateTableProbeSpilled);

// Adaptive vs static probe order on a skewed three-input MJoin. Input 0's
// window is fat — 8 same-key rows per round — while input 2's is almost
// empty, so the adaptive order learns to probe input 2 first and kills
// most candidate combinations before they fan out across the fat window;
// the static order 0..N-1 pays the full 8x intermediate fan-out on every
// fresh input-1 tuple. Output (match set and payloads) is identical in
// both modes; only enumeration cost differs.
void BM_MultiwayJoinSkewedOrder(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  constexpr Duration kWindow = 64;
  constexpr int64_t kFatRows = 8;
  MultiWayJoin join("mj", {kWindow, kWindow, kWindow},
                    MultiWayJoin::EquiJoin(0));
  join.set_equi_field(0);
  join.set_adaptive(adaptive);
  StreamBuffer in0("i0");
  StreamBuffer in1("i1");
  StreamBuffer in2("i2");
  StreamBuffer out("out");
  join.AddInput(&in0);
  join.AddInput(&in1);
  join.AddInput(&in2);
  join.AddOutput(&out);
  ManualExecContext ctx;
  auto drain = [&] {
    for (int guard = 0; guard < 100000; ++guard) {
      if (!join.Step(ctx).more) break;
    }
    while (!out.empty()) out.Pop();
  };
  Timestamp ts = 1;
  // Warm-up rounds let the adaptive order observe the skew and re-sort
  // (it re-evaluates every 16 absorbed punctuations).
  for (int round = 0; round < 64; ++round) {
    for (int64_t r = 0; r < kFatRows; ++r) {
      in0.Push(Tuple::MakeData(ts, {Value(int64_t{7})}));
    }
    in1.Push(Tuple::MakeData(ts, {Value(int64_t{7})}));
    if (round % 8 == 0) in2.Push(Tuple::MakeData(ts, {Value(int64_t{3})}));
    ++ts;
    in0.Push(Tuple::MakePunctuation(ts));
    in1.Push(Tuple::MakePunctuation(ts));
    in2.Push(Tuple::MakePunctuation(ts));
    drain();
  }
  for (auto _ : state) {
    for (int64_t r = 0; r < kFatRows; ++r) {
      in0.Push(Tuple::MakeData(ts, {Value(int64_t{7})}));
    }
    in1.Push(Tuple::MakeData(ts, {Value(int64_t{7})}));
    ++ts;
    in0.Push(Tuple::MakePunctuation(ts));
    in1.Push(Tuple::MakePunctuation(ts));
    in2.Push(Tuple::MakePunctuation(ts));
    drain();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(adaptive ? "adaptive" : "static");
}
BENCHMARK(BM_MultiwayJoinSkewedOrder)
    ->ArgName("adaptive")
    ->Arg(0)
    ->Arg(1);

void BM_DfsExecutorPath(benchmark::State& state) {
  GraphBuilder builder;
  Source* source = builder.AddSource("S", TimestampKind::kInternal);
  auto* f = builder.AddFilter("F", [](const Tuple&) { return true; });
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(source, f);
  builder.Connect(f, sink);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  VirtualClock clock;
  ExecConfig config;
  config.costs = CostModel{0, 0, 0, 0, 0};  // pure CPU measurement
  DfsExecutor executor(graph->get(), &clock, config);
  Timestamp now = 0;
  for (auto _ : state) {
    source->Ingest({Value(now)}, now);
    executor.RunUntilIdle();
    ++now;
  }
  state.SetLabel("source->filter->sink per tuple");
}
BENCHMARK(BM_DfsExecutorPath);

void BM_TupleSmallLifecycle(benchmark::State& state) {
  // Construct + destroy a data tuple with kInlineCapacity numeric values:
  // the zero-allocation steady-state unit of the whole data path.
  for (auto _ : state) {
    Tuple t = Tuple::MakeData(1, {Value(int64_t{1}), Value(2.0), Value(true),
                                  Value(int64_t{4})});
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TupleSmallLifecycle);

void BM_StreamBufferPushAllDrain(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  StreamBuffer buffer("b");
  std::vector<Tuple> out;
  for (auto _ : state) {
    std::vector<Tuple> in;
    in.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      in.push_back(Tuple::MakeData(static_cast<Timestamp>(i),
                                   {Value(static_cast<int64_t>(i))}));
    }
    buffer.PushAll(std::move(in));
    out.clear();
    benchmark::DoNotOptimize(buffer.DrainInto(&out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_StreamBufferPushAllDrain)->Arg(16)->Arg(256);

/// End-to-end cost of delivering one tuple through a registered-query
/// workload: `chains` independent source->filter->sink queries share one
/// executor, and each round one tuple arrives at one of them (round-robin).
/// This is the scheduling shape the ready queue targets — work discovery
/// should cost O(active operators), not O(graph size). range(1) selects the
/// work-discovery strategy, so ready-queue scheduling (scan=0) can be
/// compared against the retained full-scan reference (scan=1) on one build.
void BM_DfsPipeline(benchmark::State& state) {
  const int num_chains = static_cast<int>(state.range(0));
  GraphBuilder builder;
  std::vector<Source*> sources;
  for (int i = 0; i < num_chains; ++i) {
    Source* s =
        builder.AddSource("S" + std::to_string(i), TimestampKind::kInternal);
    auto* f = builder.AddFilter("F" + std::to_string(i),
                                [](const Tuple&) { return true; });
    Sink* sink = builder.AddSink("OUT" + std::to_string(i));
    builder.Connect(s, f);
    builder.Connect(f, sink);
    sources.push_back(s);
  }
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  VirtualClock clock;
  ExecConfig config;
  config.costs = CostModel{0, 0, 0, 0, 0};  // pure CPU measurement
  config.scheduler = state.range(1) == 0 ? SchedulerMode::kReadyQueue
                                         : SchedulerMode::kScanReference;
  DfsExecutor executor(graph->get(), &clock, config);
  Timestamp now = 0;
  size_t next_chain = 0;
  for (auto _ : state) {
    sources[next_chain]->Ingest({Value(now)}, now);
    if (++next_chain == sources.size()) next_chain = 0;
    executor.RunUntilIdle();
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfsPipeline)
    ->ArgNames({"chains", "scan"})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// --- Burst benchmarks ------------------------------------------------------
// Each iteration stages a burst of tuples and then executes it. Only the
// execution is timed, by hand (UseManualTime, wall clock): pausing and
// resuming the benchmark timer around every iteration reads the CPU clocks
// twice per burst, a cost on the scale of the shortest bursts themselves.

using BurstClock = std::chrono::steady_clock;

/// Records the wall time since `start` as this iteration's time.
void SetBurstTime(benchmark::State& state, BurstClock::time_point start) {
  state.SetIterationTime(
      std::chrono::duration<double>(BurstClock::now() - start).count());
}

// --- Row runs: one Step per row (budget 1) vs one Step per burst ---------
// (see docs/batching.md). The budget is ExecContext::row_budget(), which the
// executors set from ExecConfig::batch_size.

void BM_FilterScalar(benchmark::State& state) {
  const int64_t rows = state.range(0);
  StreamBuffer in("in");
  StreamBuffer out("out");
  Filter filter("f",
                [](const Tuple& t) { return t.value(0).AsDouble() >= 0.5; });
  filter.AddInput(&in);
  filter.AddOutput(&out);
  ManualExecContext ctx;
  ctx.set_row_budget(static_cast<size_t>(state.range(1)));
  Pcg32 rng(7);
  std::vector<double> values(static_cast<size_t>(rows));
  for (double& v : values) v = rng.NextDouble();
  for (auto _ : state) {
    for (int64_t i = 0; i < rows; ++i) {
      in.Push(Tuple::MakeData(i, {Value(values[static_cast<size_t>(i)])}));
    }
    const BurstClock::time_point start = BurstClock::now();
    while (!in.empty()) filter.Step(ctx);
    while (!out.empty()) out.Pop();
    SetBurstTime(state, start);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_FilterScalar)
    ->ArgNames({"rows", "budget"})
    ->Args({64, 1})
    ->Args({64, 64})
    ->Args({1024, 1})
    ->Args({1024, 1024})
    ->UseManualTime();

void BM_WindowAggScalar(benchmark::State& state) {
  const int64_t rows = state.range(0);
  StreamBuffer in("in");
  StreamBuffer out("out");
  WindowAggregate agg("w", AggKind::kSum, 0, /*window=*/1024, /*slide=*/1024);
  agg.AddInput(&in);
  agg.AddOutput(&out);
  ManualExecContext ctx;
  ctx.set_row_budget(static_cast<size_t>(state.range(1)));
  Timestamp ts = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < rows; ++i) {
      in.Push(Tuple::MakeData(ts, {Value(1.0)}));
      ++ts;
    }
    const BurstClock::time_point start = BurstClock::now();
    while (!in.empty()) agg.Step(ctx);
    while (!out.empty()) out.Pop();
    SetBurstTime(state, start);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_WindowAggScalar)
    ->ArgNames({"rows", "budget"})
    ->Args({64, 1})
    ->Args({64, 64})
    ->Args({1024, 1})
    ->Args({1024, 1024})
    ->UseManualTime();

/// The Figure-7 hot path — source -> 95% selection -> window aggregate ->
/// sink — driven through the real executor. batch=0 is the scalar engine;
/// batch=N lets one step of a row operator take a run of up to N rows.
/// Tuples arrive in bursts of 1024 so a large batch size actually sees full
/// buffers (matching the backlog shape the paper's latency experiment
/// creates on the fast stream). items/s across the batch arg column is the
/// headline batch-vs-scalar comparison of BENCH_core.json.
void BM_Fig7FilterWindowChain(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  constexpr int64_t kBurst = 1024;
  GraphBuilder builder;
  Source* source = builder.AddSource("S", TimestampKind::kInternal);
  Filter* filter = builder.AddFilter("F", [](const Tuple& t) {
    return t.value(0).AsDouble() >= 0.05;  // the paper's 95% selectivity
  });
  WindowAggregate* agg = builder.AddWindowAggregate(
      "W", AggKind::kSum, 0, /*window=*/1024, /*slide=*/1024);
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(source, filter);
  builder.Connect(filter, agg);
  builder.Connect(agg, sink);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  VirtualClock clock;
  ExecConfig config;
  config.costs = CostModel{0, 0, 0, 0, 0};  // pure CPU measurement
  config.batch_size = batch_size;
  DfsExecutor executor(graph->get(), &clock, config);
  Pcg32 rng(7);
  std::vector<double> values(kBurst);
  for (double& v : values) v = rng.NextDouble();
  Timestamp now = 0;
  for (auto _ : state) {
    // Arrival is not the path under test: the burst is staged untimed so
    // both engines are timed on execution alone.
    for (int64_t i = 0; i < kBurst; ++i) {
      source->Ingest({Value(values[static_cast<size_t>(i)])}, now);
      ++now;
    }
    const BurstClock::time_point start = BurstClock::now();
    executor.RunUntilIdle();
    SetBurstTime(state, start);
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
  state.SetLabel(batch_size == 0 ? "scalar engine" : "row runs");
}
BENCHMARK(BM_Fig7FilterWindowChain)
    ->ArgName("batch")
    ->Arg(0)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->UseManualTime();

// --- Sharded engine: shards=1 vs shards=4 on the figure workloads --------
// (docs/execution_model.md "Sharded execution"). Both are timed in wall
// clock (manual burst time): the shards step on worker threads, so the main
// thread's CPU time would undercount their work and inflate items/s. items/s
// is therefore wall-clock throughput. The virtual_tuples_per_sec counter is
// the virtual-time figure: parallel shards burn virtual CPU concurrently
// (the epoch barrier advances the clock by the MAX per-shard cost, not the
// sum), so a balanced 4-shard partition clears more virtual throughput
// than the scalar engine whatever the wall clock says.

/// Four independent fig7-style chains (source -> 95% filter -> tumbling
/// window sum -> sink), stream ids 0-3 — which FNV-partition one chain per
/// shard at shards=4.
void BM_ShardedFig7Chains(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  constexpr int kChains = 4;
  constexpr int64_t kBurst = 256;  // per chain per round
  GraphBuilder builder;
  std::vector<Source*> sources;
  for (int i = 0; i < kChains; ++i) {
    Source* source = builder.AddSource("S" + std::to_string(i),
                                       TimestampKind::kInternal);
    Filter* filter = builder.AddFilter(
        "F" + std::to_string(i),
        [](const Tuple& t) { return t.value(0).AsDouble() >= 0.05; });
    WindowAggregate* agg = builder.AddWindowAggregate(
        "W" + std::to_string(i), AggKind::kSum, 0, /*window=*/1024,
        /*slide=*/1024);
    Sink* sink = builder.AddSink("OUT" + std::to_string(i));
    builder.Connect(source, filter);
    builder.Connect(filter, agg);
    builder.Connect(agg, sink);
    sources.push_back(source);
  }
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  VirtualClock clock;
  ExecConfig config;  // default cost model: virtual time is the measurement
  config.shards = shards;
  config.shard_mode = ShardMode::kParallel;
  std::unique_ptr<Executor> executor =
      MakeExecutor(graph->get(), &clock, config).value();
  Pcg32 rng(7);
  uint64_t tuples = 0;
  for (auto _ : state) {
    // Staged untimed: arrival is not the path under test.
    Timestamp now = clock.now();
    for (int64_t i = 0; i < kBurst; ++i) {
      ++now;
      for (Source* source : sources) {
        source->Ingest({Value(rng.NextDouble())}, now);
      }
    }
    const BurstClock::time_point start = BurstClock::now();
    executor->RunUntilIdle();
    SetBurstTime(state, start);
    tuples += kChains * kBurst;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  const double vseconds = DurationToSeconds(clock.now());
  state.counters["virtual_tuples_per_sec"] =
      vseconds > 0 ? static_cast<double>(tuples) / vseconds : 0;
  state.SetLabel(shards > 1 ? "parallel shards" : "scalar dfs");
}
BENCHMARK(BM_ShardedFig7Chains)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->UseManualTime();

/// Four independent fig8-style union pairs (two streams -> filters ->
/// ordered union -> sink). Each pair's streams land on different shards,
/// so every union has one cross-shard input arc — punctuation/ETS hop
/// shard boundaries on the hot path, the fig8 queue-growth shape.
void BM_ShardedFig8Unions(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  constexpr int kPairs = 4;
  constexpr int64_t kBurst = 256;  // per stream per round
  GraphBuilder builder;
  std::vector<Source*> sources;
  for (int i = 0; i < kPairs; ++i) {
    Source* a = builder.AddSource("A" + std::to_string(i),
                                  TimestampKind::kInternal);
    Source* b = builder.AddSource("B" + std::to_string(i),
                                  TimestampKind::kInternal);
    Filter* fa = builder.AddFilter("FA" + std::to_string(i),
                                   [](const Tuple&) { return true; });
    Filter* fb = builder.AddFilter("FB" + std::to_string(i),
                                   [](const Tuple&) { return true; });
    Union* u = builder.AddUnion("U" + std::to_string(i));
    Sink* sink = builder.AddSink("OUT" + std::to_string(i));
    builder.Connect(a, fa);
    builder.Connect(b, fb);
    builder.Connect(fa, u);
    builder.Connect(fb, u);
    builder.Connect(u, sink);
    sources.push_back(a);
    sources.push_back(b);
  }
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  VirtualClock clock;
  ExecConfig config;  // default cost model: virtual time is the measurement
  config.ets.mode = EtsMode::kOnDemand;
  config.shards = shards;
  config.shard_mode = ShardMode::kParallel;
  std::unique_ptr<Executor> executor =
      MakeExecutor(graph->get(), &clock, config).value();
  uint64_t tuples = 0;
  int64_t seq = 0;
  for (auto _ : state) {
    Timestamp now = clock.now();
    for (int64_t i = 0; i < kBurst; ++i) {
      ++now;
      for (Source* source : sources) {
        source->Ingest({Value(seq)}, now);
      }
      ++seq;
    }
    const BurstClock::time_point start = BurstClock::now();
    executor->RunUntilIdle();
    SetBurstTime(state, start);
    tuples += static_cast<uint64_t>(sources.size()) * kBurst;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  const double vseconds = DurationToSeconds(clock.now());
  state.counters["virtual_tuples_per_sec"] =
      vseconds > 0 ? static_cast<double>(tuples) / vseconds : 0;
  state.SetLabel(shards > 1 ? "parallel shards" : "scalar dfs");
}
BENCHMARK(BM_ShardedFig8Unions)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->UseManualTime();

void BM_PlanParser(benchmark::State& state) {
  constexpr char kPlan[] = R"(
stream S1 ts=internal
stream S2 ts=internal
filter F1 in=S1 selectivity=0.95 seed=7
filter F2 in=S2 selectivity=0.95 seed=8
union U in=F1,F2
sink OUT in=U
)";
  for (auto _ : state) {
    auto plan = ParsePlan(kPlan);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanParser);

}  // namespace
}  // namespace dsms

// Hand-rolled BENCHMARK_MAIN so the CLI composes with the rest of bench/:
//   --json PATH (or --json=PATH) expands to google-benchmark's
//     --benchmark_out=PATH --benchmark_out_format=json, matching the --json
//     flag of the figure harnesses;
//   --benchmark_min_time=0.01s is normalized to the suffix-free form the
//     older google-benchmark in CI rejects ("expected to be a double").
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    std::string json_path;
    const std::string kJsonEq = "--json=";
    const std::string kMinTime = "--benchmark_min_time=";
    if (arg.rfind(kJsonEq, 0) == 0) {
      json_path = arg.substr(kJsonEq.size());
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (!json_path.empty()) {
      storage.push_back("--benchmark_out=" + json_path);
      storage.push_back("--benchmark_out_format=json");
      continue;
    }
    if (arg.rfind(kMinTime, 0) == 0 && arg.size() > kMinTime.size() &&
        arg.back() == 's') {
      std::string value =
          arg.substr(kMinTime.size(), arg.size() - kMinTime.size() - 1);
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == value.c_str() + value.size()) {
        storage.push_back(kMinTime + value);
        continue;
      }
    }
    storage.push_back(std::move(arg));
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  // Stamp the JSON context with this binary's own build type (google-
  // benchmark's library_build_type reflects the benchmark *library*, not
  // this translation unit) and refuse to let a debug run pass silently.
  benchmark::AddCustomContext("build_type", dsms::bench::BuildType());
  // The host and revision a result came from: CPUs this process may run on
  // (what `nproc` prints) and the commit the build was configured at.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  benchmark::AddCustomContext("nproc", std::to_string(nproc));
  benchmark::AddCustomContext("git_sha", DSMS_GIT_SHA);
  dsms::bench::WarnIfDebugBuild();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

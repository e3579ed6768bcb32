// Batch mode (ExecConfig::batch_size) is a row budget on the one Step of a
// row operator and a pure execution-strategy optimization: with the virtual
// cost model zeroed (so tuple stamping cannot observe the coarser clock
// interleaving), a batched run must deliver byte-identical sink output,
// generate the same ETS punctuations, and charge the same per-row step
// accounting as the tuple-at-a-time engine — across the whole
// fault-injection chaos matrix and for every batch size. Runs must also
// never span a punctuation: a mid-buffer punctuation stops the run so IWP
// ordering decisions see exactly the scalar sequence.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/clock.h"
#include "common/time.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "exec/dfs_executor.h"
#include "graph/graph_builder.h"
#include "operators/filter.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/fault_injector.h"
#include "sim/scenario.h"
#include "test_seed.h"

namespace dsms {
namespace {

const size_t kBatchSizes[] = {1, 7, 256};

/// Zero every virtual cost: a run charges data_step per row in one clock
/// advance instead of one advance per row, so the *intermediate*
/// clock values differ. At zero cost the clock is a pure function of the
/// event queue and the two paths become bit-for-bit comparable end to end.
CostModel ZeroCosts() {
  CostModel costs;
  costs.data_step = 0;
  costs.punctuation_step = 0;
  costs.empty_step = 0;
  costs.backtrack_hop = 0;
  costs.ets_generation = 0;
  return costs;
}

/// Mirror of chaos_test.cc's ChaosConfig (every defense armed, fault at
/// 30s/30s) with the cost model zeroed.
ScenarioConfig ChaosConfig(FaultKind kind, int executor, uint64_t seed) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.executor = static_cast<ExecutorKind>(executor);
  config.horizon = 90 * kSecond;
  config.warmup = 0;
  config.seed = seed;
  config.costs = ZeroCosts();

  config.fault.kind = kind;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault.probability = 0.5;
  const bool punct_fault = kind == FaultKind::kDuplicatePunct ||
                           kind == FaultKind::kRegressingPunct;
  config.fault_target = punct_fault ? 1 : 0;
  if (kind == FaultKind::kSkewViolation) {
    config.ts_kind = TimestampKind::kExternal;
    config.skew_bound = kSecond;
  }

  config.lease.duration = 5 * kSecond;
  config.buffer_capacity = 256;
  config.overload = OverloadPolicy::kShedOldest;
  config.violations = ViolationPolicy::kQuarantine;
  return config;
}

void ExpectBatchEquivalent(const ScenarioResult& scalar,
                           const ScenarioResult& batched,
                           const std::string& label) {
  // Byte-identical sink output, in order.
  EXPECT_EQ(scalar.sink_digest, batched.sink_digest) << label;
  EXPECT_EQ(scalar.tuples_delivered, batched.tuples_delivered) << label;
  EXPECT_EQ(scalar.order_violations, batched.order_violations) << label;
  EXPECT_EQ(scalar.buffer_order_violations, batched.buffer_order_violations)
      << label;

  // Identical punctuation machinery: same ETS births, same eliminations.
  EXPECT_EQ(scalar.ets_generated, batched.ets_generated) << label;
  EXPECT_EQ(scalar.lease_expired_ets, batched.lease_expired_ets) << label;
  EXPECT_EQ(scalar.punctuation_eliminated, batched.punctuation_eliminated)
      << label;

  // Per-row accounting: every row of a run is charged as one data step, so
  // the step-kind totals match the scalar run exactly.
  EXPECT_EQ(scalar.exec.data_steps, batched.exec.data_steps) << label;
  EXPECT_EQ(scalar.exec.punctuation_steps, batched.exec.punctuation_steps)
      << label;

  // Same degradation story under faults.
  EXPECT_EQ(scalar.degraded, batched.degraded) << label;
  EXPECT_EQ(scalar.shed_tuples, batched.shed_tuples) << label;
  EXPECT_EQ(scalar.quarantined, batched.quarantined) << label;
}

class BatchChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*executor*/>> {};

TEST_P(BatchChaosMatrixTest, SinkBytesAndEtsMatchScalar) {
  auto [kind_index, executor] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig scalar_config = ChaosConfig(kind, executor, seed);
  ScenarioResult scalar = RunScenario(scalar_config);
  EXPECT_GT(scalar.tuples_delivered, 0u);
  EXPECT_EQ(scalar.exec.batches, 0u);

  for (size_t batch : kBatchSizes) {
    ScenarioConfig config = ChaosConfig(kind, executor, seed);
    config.batch_size = batch;
    ScenarioResult batched = RunScenario(config);
    const std::string label = "kind=" + std::to_string(kind_index) +
                              " exec=" + std::to_string(executor) +
                              " batch=" + std::to_string(batch);
    ExpectBatchEquivalent(scalar, batched, label);
    // Every executor passes the row budget; the union shape runs every data
    // row through a RandomDropFilter run.
    EXPECT_GT(batched.exec.batches, 0u) << label;
    EXPECT_GE(batched.exec.batch_rows, batched.exec.batches) << label;
    if (batch == 1) {
      EXPECT_EQ(batched.exec.batch_rows, batched.exec.batches) << label;
    }
  }
}

std::string ChaosName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"None",     "Stall",    "Death",
                                 "Burst",    "Disorder", "Skew",
                                 "DupPunct", "RegressPunct"};
  static const char* kExecutors[] = {"Dfs", "RoundRobin", "Greedy"};
  return std::string(kKinds[std::get<0>(info.param)]) +
         kExecutors[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllExecutors, BatchChaosMatrixTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(0, 1, 2)),
    ChaosName);

// Every scenario kind and query shape (union / join / aggregate) on every
// executor: shapes exercise different operator mixes — the join takes
// tuple-at-a-time steps only, the aggregate runs the hoisted window-close
// test. kNoEts gives runs that never stop at a punctuation; kLatent stamps
// latent rows inside the aggregate. Two extra aggregate windows cover the
// cached single-window band of a sliding window (1.5 s / 1 s) and a window
// so wide that no timestamp has a single window (3 s / 1 s).
TEST(BatchShapeEquivalenceTest, AllShapesAllExecutorsByteIdentical) {
  struct Shape {
    QueryShape shape;
    Duration agg_window;
    Duration agg_slide;
  };
  const Shape kShapes[] = {
      {QueryShape::kUnion, kSecond, kSecond},
      {QueryShape::kJoin, kSecond, kSecond},
      {QueryShape::kAggregate, kSecond, kSecond},
      {QueryShape::kAggregate, 1500 * kMillisecond, kSecond},
      {QueryShape::kAggregate, 3 * kSecond, kSecond},
  };
  for (int kind = 0; kind < 4; ++kind) {
    for (const Shape& shape : kShapes) {
      for (int executor = 0; executor < 3; ++executor) {
        ScenarioConfig base;
        base.kind = static_cast<ScenarioKind>(kind);
        if (base.kind == ScenarioKind::kPeriodicEts) {
          base.heartbeat_rate = 10.0;
        }
        base.shape = shape.shape;
        base.agg_window = shape.agg_window;
        base.agg_slide = shape.agg_slide;
        base.executor = static_cast<ExecutorKind>(executor);
        base.horizon = 120 * kSecond;
        base.warmup = 10 * kSecond;
        base.costs = ZeroCosts();

        ScenarioResult scalar = RunScenario(base);
        EXPECT_GT(scalar.tuples_delivered, 0u);
        for (size_t batch : kBatchSizes) {
          ScenarioConfig config = base;
          config.batch_size = batch;
          ScenarioResult batched = RunScenario(config);
          ExpectBatchEquivalent(
              scalar, batched,
              std::string(ScenarioKindToString(base.kind)) +
                  " shape=" + std::to_string(static_cast<int>(shape.shape)) +
                  " window=" + std::to_string(shape.agg_window) +
                  " exec=" + std::to_string(executor) +
                  " batch=" + std::to_string(batch));
        }
      }
    }
  }
}

// --- Punctuation force-split -------------------------------------------------

/// A punctuation parked mid-buffer must cut the run short: rows before it
/// form one run, the punctuation itself takes a step of its own, and rows
/// after it form a fresh run. Sink output matches the scalar run tuple for
/// tuple.
TEST(BatchPunctuationSplitTest, MidBufferPunctuationForcesSplit) {
  struct RunOutput {
    std::vector<Tuple> delivered;
    ExecStats stats;
  };
  auto run = [](size_t batch_size) {
    GraphBuilder builder;
    Source* source = builder.AddSource("S", TimestampKind::kInternal, 0);
    Filter* filter =
        builder.AddFilter("F", [](const Tuple& t) {
          return t.value(0).AsDouble() >= 0.0;
        });
    filter->set_required_numeric_field(0);
    Sink* sink = builder.AddSink("OUT");
    builder.Connect(source, filter);
    builder.Connect(filter, sink);
    auto built = builder.Build();
    DSMS_CHECK_OK(built.status());
    auto graph = std::move(built).value();
    sink->set_collect(true);

    VirtualClock clock;
    ExecConfig config;
    config.costs = ZeroCosts();
    config.batch_size = batch_size;
    DfsExecutor executor(graph.get(), &clock, config);

    // 5 data tuples, a punctuation, 5 more — all buffered before any step,
    // so the run meets the punctuation mid-buffer.
    for (int64_t i = 0; i < 5; ++i) {
      clock.AdvanceTo(i * kMillisecond);
      source->Ingest({Value(i)}, clock.now());
    }
    source->InjectPunctuation(clock.now());
    for (int64_t i = 5; i < 10; ++i) {
      clock.AdvanceTo(i * kMillisecond);
      source->Ingest({Value(i)}, clock.now());
    }
    executor.RunUntilIdle();
    return RunOutput{sink->collected(), executor.stats()};
  };

  RunOutput scalar = run(0);
  RunOutput batched = run(256);

  ASSERT_EQ(scalar.delivered.size(), 10u);
  ASSERT_EQ(batched.delivered.size(), 10u);
  for (size_t i = 0; i < scalar.delivered.size(); ++i) {
    EXPECT_EQ(scalar.delivered[i].timestamp(),
              batched.delivered[i].timestamp());
    ASSERT_EQ(scalar.delivered[i].num_values(),
              batched.delivered[i].num_values());
    EXPECT_EQ(scalar.delivered[i].value(0).int64_value(),
              batched.delivered[i].value(0).int64_value());
  }

  // The filter saw two runs: [0..4] stopped by the punctuation, then
  // [5..9]; the punctuation itself was a step of its own.
  EXPECT_EQ(batched.stats.batch_punct_splits, 1u);
  EXPECT_GE(batched.stats.batches, 2u);
  EXPECT_EQ(batched.stats.batch_rows, 10u);
  EXPECT_EQ(batched.stats.data_steps, scalar.stats.data_steps);
  EXPECT_EQ(batched.stats.punctuation_steps, scalar.stats.punctuation_steps);
  EXPECT_EQ(scalar.stats.batches, 0u);
}

// --- The run loop (Operator::StepRun) ---------------------------------------

Tuple Data(Timestamp ts) { return Tuple::MakeData(ts, {Value(ts)}); }

struct FilterFixture {
  FilterFixture() : filter("F", [](const Tuple&) { return true; }) {
    filter.AddInput(&in);
    filter.AddOutput(&out);
  }
  StreamBuffer in{"in"};
  StreamBuffer out{"out"};
  Filter filter;
};

TEST(RowRunTest, StopsAtPunctuationAndFlagsSplit) {
  FilterFixture f;
  ASSERT_TRUE(f.in.Push(Data(1)));
  ASSERT_TRUE(f.in.Push(Data(2)));
  ASSERT_TRUE(f.in.Push(Tuple::MakePunctuation(3)));
  ASSERT_TRUE(f.in.Push(Data(4)));
  ManualExecContext ctx;
  ctx.set_row_budget(16);

  StepResult run = f.filter.Step(ctx);
  EXPECT_EQ(run.run_rows, 2u);
  EXPECT_TRUE(run.run_stopped_at_punctuation);  // rows taken, then a cut
  EXPECT_TRUE(run.processed_data);
  EXPECT_EQ(f.out.size(), 2u);
  ASSERT_FALSE(f.in.empty());
  EXPECT_TRUE(f.in.Front().is_punctuation());

  // Punctuation at the front: a step of its own, not a run, and NOT a split.
  StepResult punct = f.filter.Step(ctx);
  EXPECT_EQ(punct.run_rows, 0u);
  EXPECT_FALSE(punct.run_stopped_at_punctuation);
  EXPECT_TRUE(punct.processed_punctuation);

  // The last row is a run that ends on an empty input, not a split.
  StepResult tail = f.filter.Step(ctx);
  EXPECT_EQ(tail.run_rows, 1u);
  EXPECT_FALSE(tail.run_stopped_at_punctuation);
  EXPECT_FALSE(tail.more);
  EXPECT_EQ(f.filter.stats().steps, 4u);  // one step per tuple taken
}

TEST(RowRunTest, HonorsRowBudget) {
  FilterFixture f;
  for (Timestamp ts = 0; ts < 10; ++ts) ASSERT_TRUE(f.in.Push(Data(ts)));
  ManualExecContext ctx;
  ctx.set_row_budget(4);

  StepResult run = f.filter.Step(ctx);
  EXPECT_EQ(run.run_rows, 4u);
  EXPECT_FALSE(run.run_stopped_at_punctuation);  // stopped by the budget
  EXPECT_TRUE(run.more);
  EXPECT_EQ(f.in.size(), 6u);
  EXPECT_EQ(f.filter.stats().data_in, 4u);
  EXPECT_EQ(f.filter.stats().steps, 4u);

  // The default budget is one row: the tuple-at-a-time engine.
  ManualExecContext scalar;
  EXPECT_EQ(f.filter.Step(scalar).run_rows, 1u);
  EXPECT_EQ(f.in.size(), 5u);
}

}  // namespace
}  // namespace dsms

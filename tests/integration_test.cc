// Whole-graph integration tests: fan-out and routing topologies under the
// DFS executor, multi-component scheduling, degenerate cost models, and a
// long-horizon soak run checking global invariants.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/clock.h"
#include "core/tuple.h"
#include "exec/dfs_executor.h"
#include "exec/round_robin_executor.h"
#include "graph/graph_builder.h"
#include "graph/plan_parser.h"
#include "sim/arrival_process.h"
#include "sim/simulation.h"

namespace dsms {
namespace {

TEST(IntegrationTest, CopyFanOutBothBranchesServed) {
  GraphBuilder builder;
  Source* s = builder.AddSource("S", TimestampKind::kInternal);
  CopyOp* copy = builder.AddCopy("C");
  Sink* left = builder.AddSink("L");
  Sink* right = builder.AddSink("R");
  builder.Connect(s, copy);
  builder.Connect(copy, left);
  builder.Connect(copy, right);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());

  VirtualClock clock;
  DfsExecutor executor(graph->get(), &clock, ExecConfig{});
  for (int i = 0; i < 20; ++i) {
    clock.Advance(1000);
    s->Ingest({Value(int64_t{i})}, clock.now());
  }
  executor.RunUntilIdle();
  EXPECT_EQ(left->data_delivered(), 20u);
  EXPECT_EQ(right->data_delivered(), 20u);
}

TEST(IntegrationTest, SplitRoutesIntoUnionAndEtsFlowsPerBranch) {
  // S -> split(even, odd) -> two filters -> union -> sink. The split
  // replicates punctuation to both branches, so the union downstream never
  // starves on either branch even though data alternates.
  GraphBuilder builder;
  Source* s = builder.AddSource("S", TimestampKind::kInternal);
  Split* split = builder.AddSplit(
      "SP",
      {[](const Tuple& t) { return t.value(0).int64_value() % 2 == 0; },
       [](const Tuple& t) { return t.value(0).int64_value() % 2 != 0; }});
  auto* f_even = builder.AddFilter("FE", [](const Tuple&) { return true; });
  auto* f_odd = builder.AddFilter("FO", [](const Tuple&) { return true; });
  Union* u = builder.AddUnion("U");
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(s, split);
  builder.Connect(split, f_even);
  builder.Connect(split, f_odd);
  builder.Connect(f_even, u);
  builder.Connect(f_odd, u);
  builder.Connect(u, sink);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  sink->set_collect(true);

  VirtualClock clock;
  ExecConfig config;
  config.ets.mode = EtsMode::kOnDemand;
  DfsExecutor executor(graph->get(), &clock, config);
  Simulation sim(graph->get(), &executor, &clock);
  sim.AddFeed(s, std::make_unique<ConstantRateProcess>(20.0));
  sim.Run(10 * kSecond);

  // All tuples delivered, in timestamp order, despite branch alternation.
  EXPECT_EQ(sink->data_delivered(), s->tuples_ingested());
  Timestamp previous = kMinTimestamp;
  for (const Tuple& t : sink->collected()) {
    EXPECT_GE(t.timestamp(), previous);
    previous = t.timestamp();
  }
}

TEST(IntegrationTest, TwoComponentsShareTheExecutor) {
  // Two independent queries in one graph: the scheduler (FindWork over the
  // ready candidates) serves both; metrics are per-sink.
  GraphBuilder builder;
  Source* s1 = builder.AddSource("S1", TimestampKind::kInternal);
  Sink* k1 = builder.AddSink("K1");
  builder.Connect(s1, k1);
  Source* s2 = builder.AddSource("S2", TimestampKind::kInternal);
  auto* f2 = builder.AddFilter("F2", [](const Tuple&) { return true; });
  Sink* k2 = builder.AddSink("K2");
  builder.Connect(s2, f2);
  builder.Connect(f2, k2);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());
  EXPECT_EQ((*graph)->Components().size(), 2u);

  VirtualClock clock;
  DfsExecutor executor(graph->get(), &clock, ExecConfig{});
  Simulation sim(graph->get(), &executor, &clock);
  sim.AddFeed(s1, std::make_unique<ConstantRateProcess>(10.0));
  sim.AddFeed(s2, std::make_unique<ConstantRateProcess>(3.0));
  sim.Run(10 * kSecond);
  EXPECT_NEAR(static_cast<double>(k1->data_delivered()), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(k2->data_delivered()), 30.0, 2.0);
}

TEST(IntegrationTest, ZeroCostModelStillTerminates) {
  // With all step costs zero the virtual clock only moves on event jumps;
  // the executor must still settle after each activation (ETS suppression
  // by non-advancing bounds is what prevents spinning).
  GraphBuilder builder;
  Source* s1 = builder.AddSource("S1", TimestampKind::kInternal);
  Source* s2 = builder.AddSource("S2", TimestampKind::kInternal);
  Union* u = builder.AddUnion("U");
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(s1, u);
  builder.Connect(s2, u);
  builder.Connect(u, sink);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());

  VirtualClock clock;
  ExecConfig config;
  config.costs = CostModel{0, 0, 0, 0, 0};
  config.ets.mode = EtsMode::kOnDemand;
  DfsExecutor executor(graph->get(), &clock, config);
  Simulation sim(graph->get(), &executor, &clock);
  sim.AddFeed(s1, std::make_unique<ConstantRateProcess>(50.0));
  sim.Run(5 * kSecond);
  EXPECT_EQ(sink->data_delivered(), s1->tuples_ingested());
  (void)u;
}

TEST(IntegrationTest, DeepPipelinePlanEndToEnd) {
  // A deep plan exercising most DSL statement types in one query.
  auto plan = ParsePlan(R"(
stream RAW ts=internal
reorder RO in=RAW slack=1ms
filter BIG in=RO field=0 op=ge value=0
project KEYED in=BIG fields=0,0
map COPYCOL in=KEYED fields=0
)");
  // `map` is not a DSL statement; the line above must fail cleanly.
  EXPECT_FALSE(plan.ok());

  auto good = ParsePlan(R"(
stream RAW ts=internal
reorder RO in=RAW slack=1ms
filter BIG in=RO field=0 op=ge value=0
project KEYED in=BIG fields=0,0
gaggregate COUNTS in=KEYED fn=count key=0 window=1s
sink OUT in=COUNTS
)");
  ASSERT_TRUE(good.ok()) << good.status();

  auto* raw = dynamic_cast<Source*>(good->Find("RAW"));
  auto* out = dynamic_cast<Sink*>(good->Find("OUT"));
  ASSERT_NE(raw, nullptr);
  ASSERT_NE(out, nullptr);

  VirtualClock clock;
  ExecConfig config;
  config.ets.mode = EtsMode::kOnDemand;
  DfsExecutor executor(good->graph.get(), &clock, config);
  Simulation sim(good->graph.get(), &executor, &clock);
  sim.AddFeed(raw, std::make_unique<PoissonProcess>(25.0, 3));
  sim.Run(20 * kSecond);
  EXPECT_GT(out->data_delivered(), 10u);  // one count row per busy window
}

TEST(IntegrationTest, SoakHourLongHorizonInvariantsHold) {
  // One virtual hour of the paper's query under on-demand ETS; checks
  // conservation, ordering, and that buffers stay tiny throughout.
  GraphBuilder builder;
  Source* fast = builder.AddSource("FAST", TimestampKind::kInternal);
  Source* slow = builder.AddSource("SLOW", TimestampKind::kInternal);
  Union* u = builder.AddUnion("U");
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(fast, u);
  builder.Connect(slow, u);
  builder.Connect(u, sink);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());

  VirtualClock clock;
  ExecConfig config;
  config.ets.mode = EtsMode::kOnDemand;
  DfsExecutor executor(graph->get(), &clock, config);
  Simulation sim(graph->get(), &executor, &clock);
  sim.AddFeed(fast, std::make_unique<PoissonProcess>(50.0, 11));
  sim.AddFeed(slow, std::make_unique<PoissonProcess>(0.05, 12));
  sim.Run(3600 * kSecond);

  uint64_t ingested = fast->tuples_ingested() + slow->tuples_ingested();
  // Everything but the last blocked handful must be out.
  EXPECT_GE(sink->data_delivered() + 5, ingested);
  EXPECT_LT(sim.queue_tracker().peak_total(), 20);
  EXPECT_LT(sink->latency().mean_ms(), 1.0);
  const IdleWaitTracker* tracker = executor.idle_tracker(u->id());
  ASSERT_NE(tracker, nullptr);
  EXPECT_LT(tracker->IdleFraction(0, clock.now()), 0.01);
}

TEST(IntegrationTest, RoundRobinSplitUnionGraph) {
  GraphBuilder builder;
  Source* s = builder.AddSource("S", TimestampKind::kInternal);
  Split* split = builder.AddSplit(
      "SP",
      {[](const Tuple& t) { return t.value(0).int64_value() % 2 == 0; },
       [](const Tuple& t) { return t.value(0).int64_value() % 2 != 0; }});
  Union* u = builder.AddUnion("U");
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(s, split);
  builder.Connect(split, u);
  builder.Connect(split, u);
  builder.Connect(u, sink);
  auto graph = builder.Build();
  DSMS_CHECK_OK(graph.status());

  VirtualClock clock;
  ExecConfig config;
  config.ets.mode = EtsMode::kOnDemand;
  RoundRobinExecutor executor(graph->get(), &clock, config, /*quantum=*/2);
  Simulation sim(graph->get(), &executor, &clock);
  sim.AddFeed(s, std::make_unique<ConstantRateProcess>(10.0));
  sim.Run(10 * kSecond);
  EXPECT_EQ(sink->data_delivered(), s->tuples_ingested());
}

}  // namespace
}  // namespace dsms

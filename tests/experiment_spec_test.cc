#include "sim/experiment_spec.h"

#include <string>

#include <gtest/gtest.h>

#include "common/time.h"

namespace dsms {
namespace {

constexpr char kBasicExperiment[] = R"(
stream FAST ts=internal
stream SLOW ts=internal
union U in=FAST,SLOW
sink OUT in=U
feed FAST process=poisson rate=50 seed=1
feed SLOW process=poisson rate=0.5 seed=2
run horizon=30s warmup=5s ets=on-demand
)";

TEST(ExperimentSpecTest, ParsesPlanAndExecutionStatements) {
  auto experiment = ParseExperiment(kBasicExperiment);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  EXPECT_EQ(experiment->feeds.size(), 2u);
  EXPECT_EQ(experiment->feeds[0].source, "FAST");
  EXPECT_EQ(experiment->feeds[0].kind, FeedSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(experiment->feeds[0].rate, 50.0);
  EXPECT_EQ(experiment->run.horizon, 30 * kSecond);
  EXPECT_EQ(experiment->run.warmup, 5 * kSecond);
  EXPECT_EQ(experiment->run.ets, EtsMode::kOnDemand);
  EXPECT_EQ(experiment->run.executor, ExecutorKind::kDfs);
}

TEST(ExperimentSpecTest, RunsEndToEnd) {
  auto experiment = ParseExperiment(kBasicExperiment);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  auto report = RunExperiment(&*experiment);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->end_time, 30 * kSecond);
  ASSERT_EQ(report->sinks.size(), 1u);
  EXPECT_EQ(report->sinks[0].name, "OUT");
  EXPECT_GT(report->sinks[0].tuples, 500u);
  EXPECT_LT(report->sinks[0].mean_latency_ms, 1.0);
  EXPECT_GT(report->ets_generated, 10u);
  EXPECT_NE(report->operator_stats.find("U"), std::string::npos);
}

TEST(ExperimentSpecTest, DeterministicAcrossRuns) {
  auto e1 = ParseExperiment(kBasicExperiment);
  auto e2 = ParseExperiment(kBasicExperiment);
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto r1 = RunExperiment(&*e1);
  auto r2 = RunExperiment(&*e2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->sinks[0].tuples, r2->sinks[0].tuples);
  EXPECT_DOUBLE_EQ(r1->sinks[0].mean_latency_ms, r2->sinks[0].mean_latency_ms);
}

TEST(ExperimentSpecTest, HeartbeatStatement) {
  auto experiment = ParseExperiment(R"(
stream A ts=internal
stream B ts=internal
union U in=A,B
sink OUT in=U
feed A process=constant rate=5
heartbeat B period=100ms phase=5ms
run horizon=10s ets=none
)");
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  ASSERT_EQ(experiment->heartbeats.size(), 1u);
  EXPECT_EQ(experiment->heartbeats[0].period, 100 * kMillisecond);
  auto report = RunExperiment(&*experiment);
  ASSERT_TRUE(report.ok()) << report.status();
  // Heartbeats released the data: everything delivered within the period.
  EXPECT_GT(report->sinks[0].tuples, 40u);
  EXPECT_LT(report->sinks[0].mean_latency_ms, 120.0);
  EXPECT_EQ(report->ets_generated, 0u);
}

TEST(ExperimentSpecTest, BurstyAndRandintPayload) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
gaggregate G in=S fn=count key=0 window=1s
sink OUT in=G
feed S process=bursty burst_rate=200 idle_rate=1 burst_len=100ms idle_len=1s seed=3 payload=randint lo=0 hi=4 fields=1
run horizon=30s
)");
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  EXPECT_EQ(experiment->feeds[0].kind, FeedSpec::Kind::kBursty);
  EXPECT_EQ(experiment->feeds[0].payload, FeedSpec::Payload::kRandInt);
  auto report = RunExperiment(&*experiment);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->sinks[0].tuples, 5u);  // per-key per-window counts
}

TEST(ExperimentSpecTest, RoundRobinExecutorOption) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed S process=constant rate=10
run horizon=5s executor=round-robin quantum=3
)");
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  EXPECT_EQ(experiment->run.executor, ExecutorKind::kRoundRobin);
  EXPECT_EQ(experiment->run.quantum, 3);
  auto report = RunExperiment(&*experiment);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NEAR(static_cast<double>(report->sinks[0].tuples), 50.0, 2.0);
}

TEST(ExperimentSpecTest, FaultStatementAndRobustnessRunKeys) {
  auto experiment = ParseExperiment(R"(
stream FAST ts=internal
stream SLOW ts=internal
union U in=FAST,SLOW
sink OUT in=U
feed FAST process=poisson rate=50 seed=1
feed SLOW process=poisson rate=0.5 seed=2
fault SLOW kind=stall start=10s duration=10s
run horizon=40s ets=none lease=2s buffer_cap=128 overload=shed violations=quarantine
)");
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  ASSERT_EQ(experiment->faults.size(), 1u);
  EXPECT_EQ(experiment->faults[0].source, "SLOW");
  EXPECT_EQ(experiment->faults[0].spec.kind, FaultKind::kStall);
  EXPECT_EQ(experiment->faults[0].spec.start, 10 * kSecond);
  EXPECT_EQ(experiment->run.lease, 2 * kSecond);
  EXPECT_EQ(experiment->run.buffer_cap, 128u);
  EXPECT_EQ(experiment->run.overload, OverloadPolicy::kShedOldest);
  EXPECT_EQ(experiment->run.violations, ViolationPolicy::kQuarantine);

  auto report = RunExperiment(&*experiment);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->fault_events, 0u);
  EXPECT_GT(report->lease_expired_ets, 0u);
  EXPECT_TRUE(report->degraded);
  EXPECT_LE(report->max_buffer_hwm, 128u);
  EXPECT_NE(report->robustness.find("degraded source 'SLOW'"),
            std::string::npos);
}

TEST(ExperimentSpecTest, ErrorFaultOnUnknownStream) {
  auto experiment = ParseExperiment(R"(
stream A ts=internal
sink OUT in=A
feed A process=constant rate=5
fault NOPE kind=stall
)");
  EXPECT_FALSE(experiment.ok());
}

TEST(ExperimentSpecTest, ErrorBadFaultKind) {
  auto experiment = ParseExperiment(R"(
stream A ts=internal
sink OUT in=A
feed A process=constant rate=5
fault A kind=meteor
)");
  EXPECT_FALSE(experiment.ok());
}

TEST(ExperimentSpecTest, ErrorBadOverloadPolicy) {
  auto experiment = ParseExperiment(R"(
stream A ts=internal
sink OUT in=A
feed A process=constant rate=5
run overload=explode
)");
  EXPECT_FALSE(experiment.ok());
}

TEST(ExperimentSpecTest, ErrorFeedOnUnknownStream) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed NOPE process=poisson rate=1
)");
  ASSERT_FALSE(experiment.ok());
  EXPECT_NE(experiment.status().message().find("NOPE"), std::string::npos);
}

TEST(ExperimentSpecTest, ErrorFeedOnNonStream) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed OUT process=poisson rate=1
)");
  ASSERT_FALSE(experiment.ok());
  EXPECT_NE(experiment.status().message().find("stream"), std::string::npos);
}

TEST(ExperimentSpecTest, ErrorNoFeeds) {
  auto experiment = ParseExperiment("stream S\nsink OUT in=S\nrun horizon=1s\n");
  ASSERT_FALSE(experiment.ok());
  EXPECT_NE(experiment.status().message().find("no feeds"),
            std::string::npos);
}

TEST(ExperimentSpecTest, ErrorDuplicateRun) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed S process=poisson rate=1
run horizon=1s
run horizon=2s
)");
  ASSERT_FALSE(experiment.ok());
  EXPECT_NE(experiment.status().message().find("duplicate run"),
            std::string::npos);
}

TEST(ExperimentSpecTest, ErrorBadProcess) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed S process=fractal rate=1
)");
  ASSERT_FALSE(experiment.ok());
  EXPECT_NE(experiment.status().message().find("fractal"), std::string::npos);
}

TEST(ExperimentSpecTest, ErrorBadEtsValue) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed S process=poisson rate=1
run ets=perhaps
)");
  ASSERT_FALSE(experiment.ok());
}

// A retired or misspelled run key must fail the parse: silently ignoring
// `watchdog=` or `leas=` would leave liveness disarmed.
TEST(ExperimentSpecTest, ErrorUnknownKeyInEveryStatement) {
  // A misspelled or retired key fails the parse in every statement type,
  // instead of silently leaving its knob at the default.
  struct Case {
    const char* statement;
    const char* type;
    const char* key;
  };
  const Case kCases[] = {
      {"feed S process=poisson rate=5 sede=9", "feed", "sede"},
      {"heartbeat S period=1s phse=10ms", "heartbeat", "phse"},
      {"fault S kind=stall strat=1s", "fault", "strat"},
      {"run horizon=10s watchdog=5s", "run", "watchdog"},
      {"run horizon=10s leas=5s", "run", "leas"},
      {"batch size=4 rows=4", "batch", "rows"},
      {"trace path=/tmp/never-written.json cap=8", "trace", "cap"},
      {"wal dir=/tmp/never-opened synch=none", "wal", "synch"},
      {"checkpoint horizon=1s kept=2", "checkpoint", "kept"},
      {"crash at=1s when=2s", "crash", "when"},
      {"state mem_budget=4k spill_dir=/tmp/never-made budget=1", "state",
       "budget"},
      {"netfault kind=split sed=3", "netfault", "sed"},
  };
  for (const Case& c : kCases) {
    auto experiment = ParseExperiment(std::string(R"(
stream S ts=internal
sink OUT in=S
)") + c.statement + "\n",
                                      /*require_feeds=*/false);
    EXPECT_FALSE(experiment.ok()) << c.statement;
    if (experiment.ok()) continue;
    EXPECT_EQ(experiment.status().message(),
              std::string("line 4: unknown ") + c.type + " key '" + c.key +
                  "'");
  }
}

TEST(ExperimentSpecTest, ErrorMissingTraceFile) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
sink OUT in=S
feed S trace=/no/such/file.txt
)");
  ASSERT_TRUE(experiment.ok()) << experiment.status();  // parse is lazy
  auto report = RunExperiment(&*experiment);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(ExperimentSpecTest, PlanErrorsPropagateWithLineNumbers) {
  auto experiment = ParseExperiment(R"(
stream S ts=internal
union U in=S
sink OUT in=U
feed S process=poisson rate=1
)");
  ASSERT_FALSE(experiment.ok());  // unary union rejected by plan validation
}

}  // namespace
}  // namespace dsms

// FrontierTracker: the lease/lifecycle unit contract, the frozen liveness
// oracle (golden digests of the lease path, captured while it still ran
// beside the legacy watchdog it replaced), and the headline chaos scenarios
// of the frontier coordination service — a flapping source absorbed by
// quarantine and re-admission, and a run with three simultaneously
// misbehaving sources that still completes with the frontier advancing.

#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/time.h"
#include "core/stream_buffer.h"
#include "frontier/frontier_tracker.h"
#include "operators/source.h"
#include "recovery/state_codec.h"
#include "sim/fault_injector.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

// --- Lifecycle unit contract -------------------------------------------------

class TrackerLifecycleTest : public ::testing::Test {
 protected:
  TrackerLifecycleTest() : source_("S", /*stream_id=*/7,
                                   TimestampKind::kInternal) {
    tracker_.set_clock(&clock_);
    tracker_.Register(&source_);
  }

  VirtualClock clock_;
  FrontierTracker tracker_;
  Source source_;
};

TEST_F(TrackerLifecycleTest, ViolationsWalkHealthySuspectQuarantined) {
  EXPECT_EQ(tracker_.health(7), SourceHealth::kHealthy);

  // Default hysteresis: 1 strike to suspect, 3 more to quarantine.
  tracker_.ReportViolation(7, FrontierViolation::kPunctuationRegression);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kSuspect);
  tracker_.ReportViolation(7, FrontierViolation::kSkewViolation);
  tracker_.ReportViolation(7, FrontierViolation::kTimestampDisorder);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kSuspect);
  tracker_.ReportViolation(7, FrontierViolation::kFlappingRevival);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kQuarantined);

  EXPECT_EQ(tracker_.violations(), 4u);
  EXPECT_EQ(tracker_.quarantines(), 1u);
  EXPECT_EQ(tracker_.CountInState(SourceHealth::kQuarantined), 1u);
}

TEST_F(TrackerLifecycleTest, CleanWindowsReadmitThenHealWithProbation) {
  LeasePolicy policy;
  policy.readmit_after = 10 * kSecond;
  policy.probation = 10 * kSecond;
  tracker_.set_policy(policy);

  for (int i = 0; i < 4; ++i) {
    tracker_.ReportViolation(7, FrontierViolation::kFlappingRevival);
  }
  ASSERT_EQ(tracker_.health(7), SourceHealth::kQuarantined);

  // One microsecond short of the clean window: still quarantined.
  tracker_.Poll(10 * kSecond - 1);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kQuarantined);
  tracker_.Poll(10 * kSecond);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kReadmitted);
  tracker_.Poll(20 * kSecond - 1);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kReadmitted);
  tracker_.Poll(20 * kSecond);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kHealthy);

  // Hysteresis the other way: a single strike on probation re-quarantines.
  for (int i = 0; i < 4; ++i) {
    tracker_.ReportViolation(7, FrontierViolation::kFlappingRevival);
  }
  ASSERT_EQ(tracker_.health(7), SourceHealth::kQuarantined);
  clock_.AdvanceTo(40 * kSecond);
  tracker_.Poll(clock_.now());
  ASSERT_EQ(tracker_.health(7), SourceHealth::kReadmitted);
  tracker_.ReportViolation(7, FrontierViolation::kPunctuationRegression);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kQuarantined);
  EXPECT_EQ(tracker_.quarantines(), 3u);
}

TEST_F(TrackerLifecycleTest, BenignReportsNeverStrike) {
  for (int i = 0; i < 100; ++i) tracker_.ReportBenign(7);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kHealthy);
  EXPECT_EQ(tracker_.benign_reports(), 100u);
  EXPECT_EQ(tracker_.violations(), 0u);
  EXPECT_EQ(tracker_.transitions(), 0u);
}

TEST_F(TrackerLifecycleTest, RevokeExcludesAndActivityReinstates) {
  ASSERT_NE(tracker_.participant(7), nullptr);
  EXPECT_FALSE(tracker_.participant(7)->revoked);
  tracker_.Revoke(7);
  EXPECT_TRUE(tracker_.participant(7)->revoked);
  tracker_.Revoke(7);  // idempotent
  EXPECT_EQ(tracker_.revocations(), 1u);
  tracker_.NoteConnectionActivity(7);
  EXPECT_FALSE(tracker_.participant(7)->revoked);
}

TEST(TrackerFrontierTest, CheckpointFrontierExcludesUntrustedPromises) {
  VirtualClock clock;
  FrontierTracker tracker;
  tracker.set_clock(&clock);

  Source liar("LIAR", 1, TimestampKind::kInternal);
  Source honest("HONEST", 2, TimestampKind::kInternal);
  StreamBuffer liar_out("liar->x");
  StreamBuffer honest_out("honest->x");
  liar.AddOutput(&liar_out);
  honest.AddOutput(&honest_out);
  tracker.Register(&liar);
  tracker.Register(&honest);

  liar.InjectPunctuation(5 * kSecond);
  honest.InjectPunctuation(9 * kSecond);
  EXPECT_EQ(tracker.CheckpointFrontier(), 5 * kSecond);
  EXPECT_EQ(tracker.GlobalFrontier(), 5 * kSecond);

  // Quarantining the laggard releases the checkpoint frontier to the
  // slowest *trusted* promise...
  for (int i = 0; i < 4; ++i) {
    tracker.ReportViolation(1, FrontierViolation::kPunctuationRegression);
  }
  ASSERT_EQ(tracker.health(1), SourceHealth::kQuarantined);
  EXPECT_EQ(tracker.CheckpointFrontier(), 9 * kSecond);
  // ...while the metrics-facing global frontier still reports the truth.
  EXPECT_EQ(tracker.GlobalFrontier(), 5 * kSecond);

  // With no trusted participant left, fall back to min-over-all rather
  // than inventing a bound from nothing.
  for (int i = 0; i < 4; ++i) {
    tracker.ReportViolation(2, FrontierViolation::kPunctuationRegression);
  }
  EXPECT_EQ(tracker.CheckpointFrontier(), 5 * kSecond);
}

TEST(TrackerStateTest, SaveLoadRoundTripRestoresLifecycle) {
  VirtualClock clock;
  clock.AdvanceTo(42 * kSecond);
  Source source("S", 3, TimestampKind::kInternal);

  FrontierTracker a;
  a.set_clock(&clock);
  a.Register(&source);
  for (int i = 0; i < 4; ++i) {
    a.ReportViolation(3, FrontierViolation::kFlappingRevival);
  }
  a.Revoke(3);
  ASSERT_EQ(a.health(3), SourceHealth::kQuarantined);

  StateWriter w;
  a.SaveState(w);
  std::string blob = w.Take();

  FrontierTracker b;
  b.set_clock(&clock);
  b.Register(&source);
  StateReader r(blob);
  b.LoadState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  // A restart must not re-trust a known liar: the quarantine decision, its
  // timing, and every counter survive the round trip.
  EXPECT_EQ(b.health(3), SourceHealth::kQuarantined);
  ASSERT_NE(b.participant(3), nullptr);
  EXPECT_TRUE(b.participant(3)->revoked);
  EXPECT_EQ(b.participant(3)->violations, 4u);
  EXPECT_EQ(b.participant(3)->last_violation, 42 * kSecond);
  EXPECT_EQ(b.violations(), 4u);
  EXPECT_EQ(b.quarantines(), 1u);
  EXPECT_EQ(b.revocations(), 1u);
  // The restored participant is merged onto the registered source, not a
  // detached shadow entry.
  EXPECT_EQ(b.participant(3)->source, &source);
}

// --- Frozen liveness oracle ------------------------------------------------

/// The chaos matrix configuration (tests/chaos_test.cc) with tracing on:
/// every defense armed, one fault injected. Always seed 42: DSMS_TEST_SEED
/// must not move a frozen value.
ScenarioConfig OracleConfig(FaultKind kind, int executor) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.executor = static_cast<ExecutorKind>(executor);
  config.horizon = 90 * kSecond;
  config.warmup = 0;
  config.seed = 42;
  config.record_trace = true;

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
  if (kind == FaultKind::kFlap) config.fault.punct_period = 10 * kSecond;

  config.lease.duration = 5 * kSecond;
  config.buffer_capacity = 256;
  config.overload = OverloadPolicy::kShedOldest;
  config.violations = ViolationPolicy::kQuarantine;
  return config;
}

/// Frozen outputs of one oracle case.
struct GoldenRow {
  const char* name;
  uint64_t trace_events;
  uint64_t trace_hash;
  uint64_t sink_digest;
  uint64_t tuples_delivered;
  uint64_t lease_ets;
  bool degraded;
  uint64_t data_steps;
  uint64_t punctuation_steps;
  uint64_t ets_generated;
  uint64_t backtracks;
};

// Captured at bfe5ec15b56806541687490ad0d3dc4b5b1d1122, where the lease path
// and the legacy per-executor watchdog it replaced produced these values on
// every row. Row index is kind * 3 + executor.
constexpr GoldenRow kGoldenOnDemand[] = {
    {"NoneDfs", 44660, 0x82cf2267b108aeb5, 0x2a4c4c8fe0711440,
     4414, 0, false, 13506, 8824, 4412, 13502},
    {"NoneRoundRobin", 44666, 0x3caf118515bbcc9a, 0x1c776b62788a0b80,
     4414, 0, false, 13506, 8827, 4412, 4412},
    {"NoneGreedy", 44660, 0x1c10912737ab895d, 0x76b5c2d878ab8d28,
     4414, 0, false, 13506, 8824, 4412, 4412},
    {"StallDfs", 29870, 0xbb080faa470dd5ca, 0x39c7c3effad434fd,
     2951, 0, false, 9037, 5898, 2949, 9033},
    {"StallRoundRobin", 29874, 0x37f476549bb5cbe2, 0x6795ab508d77382d,
     2951, 0, false, 9037, 5900, 2949, 2949},
    {"StallGreedy", 29870, 0xe8bbac57d8dea0ea, 0xc580c641e7a3be39,
     2951, 0, false, 9037, 5898, 2949, 2949},
    {"DeathDfs", 15010, 0xf5648dbb46c82a2a, 0x49686aad3b1e7cf0,
     1482, 0, false, 4541, 2964, 1482, 4541},
    {"DeathRoundRobin", 15012, 0x5998c826b8b0e73d, 0x02e4678a281dd274,
     1482, 0, false, 4541, 2965, 1482, 1482},
    {"DeathGreedy", 15010, 0x83204c585c7f257a, 0x5cd5ba9b097d9a54,
     1482, 0, false, 4541, 2964, 1482, 1482},
    {"BurstDfs", 71826, 0x86edc825128bbb1a, 0x841ef15290076e99,
     8805, 0, false, 26917, 8996, 4498, 18077},
    {"BurstRoundRobin", 71816, 0xdbf7341d9b563c85, 0xca72fd4682b79249,
     8805, 0, false, 26917, 8991, 4493, 4493},
    {"BurstGreedy", 71806, 0x93fd79ac1d4473aa, 0x0f32430b16e4de39,
     8805, 0, false, 26917, 8986, 4493, 4493},
    {"DisorderDfs", 37094, 0x747b09e535bf1402, 0x6ea84c50d6c0fcd9,
     3667, 0, false, 11217, 7330, 3665, 11213},
    {"DisorderRoundRobin", 37100, 0xab7b407f19f0ae19, 0x46bea685ed055711,
     3667, 0, false, 11217, 7333, 3665, 3665},
    {"DisorderGreedy", 37094, 0xf62caf7e981cc44a, 0xa2ad887188217e31,
     3667, 0, false, 11217, 7330, 3665, 3665},
    {"SkewDfs", 26040, 0xa252772ef8d87dda, 0x92a44645176cd6db,
     3633, 0, false, 11149, 1854, 618, 12885},
    {"SkewRoundRobin", 26040, 0x1a971d1c31ed5635, 0xe6860d7bf641690b,
     3633, 0, false, 11149, 1854, 618, 5283},
    {"SkewGreedy", 26040, 0x0df80a100d9088ef, 0x52f42577b25a9ed0,
     3633, 0, false, 11149, 1854, 618, 5283},
    {"DupPunctDfs", 44780, 0xbb2460aea48f918d, 0x2a4c4c8fe0711440,
     4414, 0, false, 13506, 8884, 4412, 13532},
    {"DupPunctRoundRobin", 44786, 0x8e05d38d54536d7a, 0x1c776b62788a0b80,
     4414, 0, false, 13506, 8887, 4412, 4412},
    {"DupPunctGreedy", 44780, 0x55e604a5b702773d, 0x76b5c2d878ab8d28,
     4414, 0, false, 13506, 8884, 4412, 4412},
    {"RegressPunctDfs", 44660, 0x82cf2267b108aeb5, 0x2a4c4c8fe0711440,
     4414, 0, false, 13506, 8824, 4412, 13502},
    {"RegressPunctRoundRobin", 44666, 0x3caf118515bbcc9a, 0x1c776b62788a0b80,
     4414, 0, false, 13506, 8827, 4412, 4412},
    {"RegressPunctGreedy", 44660, 0x1c10912737ab895d, 0x76b5c2d878ab8d28,
     4414, 0, false, 13506, 8824, 4412, 4412},
    {"FlapDfs", 34784, 0x929813e9d74e564d, 0xa2abbf560d63a719,
     3439, 0, false, 10518, 6874, 3437, 10514},
    {"FlapRoundRobin", 34790, 0x5e1e66ef960263ce, 0x5fa3407006422d79,
     3439, 0, false, 10518, 6877, 3437, 3437},
    {"FlapGreedy", 34784, 0xae861cf77ca760a5, 0xd6515a5820be3fd1,
     3439, 0, false, 10518, 6874, 3437, 3437},
};

/// The same 27 cases with ETS off (ScenarioKind::kNoEts). With on-demand ETS
/// the sweep never leaves a source silent past its lease, so only these rows
/// actually fire lease ETS.
constexpr GoldenRow kGoldenNoEts[] = {
    {"NoneDfs", 26642, 0xa844b608f90ff775, 0xb37e68fe2a38ee78,
     4252, 16, true, 13182, 32, 0, 8936},
    {"NoneRoundRobin", 26648, 0xb42cf1fe58cf628a, 0xb3273e79157d9f10,
     4252, 16, true, 13182, 35, 0, 0},
    {"NoneGreedy", 26648, 0x8b4c8407fcdb59a2, 0xb3273e79157d9f10,
     4252, 16, true, 13182, 35, 0, 0},
    {"StallDfs", 17426, 0x5bc9c11e9a28a2b2, 0xae44e20e52f3a245,
     2705, 15, true, 8545, 30, 0, 5851},
    {"StallRoundRobin", 17430, 0x6bfa582702b4686e, 0xf784987def31555d,
     2705, 15, true, 8545, 32, 0, 0},
    {"StallGreedy", 17430, 0x955e5255fc56c65e, 0xf784987def31555d,
     2705, 15, true, 8545, 32, 0, 0},
    {"DeathDfs", 9088, 0x1005ea4c8bab557d, 0x6f5e906ba19d1069,
     1467, 9, true, 4511, 18, 0, 3049},
    {"DeathRoundRobin", 9088, 0x5594f122e85e071d, 0x26550899f055863d,
     1467, 9, true, 4511, 18, 0, 0},
    {"DeathGreedy", 9088, 0x6ab8da0a5f79b335, 0x26550899f055863d,
     1467, 9, true, 4511, 18, 0, 0},
    {"BurstDfs", 45693, 0x5eb9ffd23d38ec55, 0xb5ce270cb17ee961,
     4759, 16, true, 18825, 32, 0, 14071},
    {"BurstRoundRobin", 45701, 0x930a581f027162d5, 0xec53acb25028fb19,
     4759, 16, true, 18825, 36, 0, 0},
    {"BurstGreedy", 45701, 0x9de88949b8e4d065, 0xec53acb25028fb19,
     4759, 16, true, 18825, 36, 0, 0},
    {"DisorderDfs", 22080, 0x9dcc489876405b96, 0x223990e37ee56cb5,
     3513, 16, true, 10909, 32, 0, 7402},
    {"DisorderRoundRobin", 22084, 0xb41f156ff0ae6b52, 0x6906ab8d4eda7855,
     3513, 16, true, 10909, 34, 0, 0},
    {"DisorderGreedy", 22084, 0xbf690c74fd81fcde, 0x6906ab8d4eda7855,
     3513, 16, true, 10909, 34, 0, 0},
    {"SkewDfs", 21396, 0x6160a123c7ff079c, 0xfcf213b4a6694ad1,
     3182, 16, true, 10247, 48, 0, 7072},
    {"SkewRoundRobin", 21396, 0x946eb956ddb770eb, 0x8a7bb7f324118643,
     3182, 16, true, 10247, 48, 0, 0},
    {"SkewGreedy", 21396, 0x438180cfc3408df4, 0x68f35b457de4b96b,
     3182, 16, true, 10247, 48, 0, 0},
    {"DupPunctDfs", 26772, 0x04bd3452fb14e462, 0xb37e68fe2a38ee78,
     4252, 16, true, 13182, 97, 0, 8966},
    {"DupPunctRoundRobin", 26774, 0x3143ef1c083511e5, 0xb3273e79157d9f10,
     4252, 16, true, 13182, 98, 0, 0},
    {"DupPunctGreedy", 26774, 0xb93651e7e21a7d4d, 0xb3273e79157d9f10,
     4252, 16, true, 13182, 98, 0, 0},
    {"RegressPunctDfs", 26642, 0xa844b608f90ff775, 0xb37e68fe2a38ee78,
     4252, 16, true, 13182, 32, 0, 8936},
    {"RegressPunctRoundRobin", 26648, 0xb42cf1fe58cf628a, 0xb3273e79157d9f10,
     4252, 16, true, 13182, 35, 0, 0},
    {"RegressPunctGreedy", 26648, 0x8b4c8407fcdb59a2, 0xb3273e79157d9f10,
     4252, 16, true, 13182, 35, 0, 0},
    {"FlapDfs", 20342, 0x8ced5f16a5efb525, 0xdf41c2bac60b7e61,
     3175, 16, true, 9990, 32, 0, 6825},
    {"FlapRoundRobin", 20348, 0x95f7ee8e8b5cbc62, 0xed7d7b67a1f372f5,
     3175, 16, true, 9990, 35, 0, 0},
    {"FlapGreedy", 20348, 0xca2b15f7593bb122, 0xed7d7b67a1f372f5,
     3175, 16, true, 9990, 35, 0, 0},
};

std::string CaseName(int kind_index, int executor) {
  static const char* kKinds[] = {"None",     "Stall",    "Death",
                                 "Burst",    "Disorder", "Skew",
                                 "DupPunct", "RegressPunct", "Flap"};
  static const char* kExecutors[] = {"Dfs", "RoundRobin", "Greedy"};
  return std::string(kKinds[kind_index]) + kExecutors[executor];
}

void ExpectGolden(const ScenarioConfig& config, const GoldenRow& golden) {
  const ScenarioResult result = RunScenario(config);
  EXPECT_EQ(result.trace_events, golden.trace_events);
  EXPECT_EQ(result.trace_hash, golden.trace_hash);
  EXPECT_EQ(result.sink_digest, golden.sink_digest);
  EXPECT_EQ(result.tuples_delivered, golden.tuples_delivered);
  EXPECT_EQ(result.lease_expired_ets, golden.lease_ets);
  EXPECT_EQ(result.degraded, golden.degraded);
  EXPECT_EQ(result.exec.data_steps, golden.data_steps);
  EXPECT_EQ(result.exec.punctuation_steps, golden.punctuation_steps);
  EXPECT_EQ(result.exec.ets_generated, golden.ets_generated);
  EXPECT_EQ(result.exec.backtracks, golden.backtracks);
}

class FrontierOracleTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*executor*/>> {};

/// The lease path reproduces the legacy watchdog's tuple movement bit for
/// bit — on the healthy path and under every fault kind.
TEST_P(FrontierOracleTest, TrackerIsTraceIdenticalToLegacyWatchdog) {
  auto [kind_index, executor] = GetParam();
  const GoldenRow& golden = kGoldenOnDemand[kind_index * 3 + executor];
  ASSERT_EQ(CaseName(kind_index, executor), golden.name);
  ExpectGolden(OracleConfig(static_cast<FaultKind>(kind_index), executor),
               golden);
}

/// The same with ETS off, where the lease actually fires.
TEST_P(FrontierOracleTest, LeaseExpiryIsTraceIdenticalToLegacyWatchdog) {
  auto [kind_index, executor] = GetParam();
  const GoldenRow& golden = kGoldenNoEts[kind_index * 3 + executor];
  ASSERT_EQ(CaseName(kind_index, executor), golden.name);
  ScenarioConfig config =
      OracleConfig(static_cast<FaultKind>(kind_index), executor);
  config.kind = ScenarioKind::kNoEts;
  ExpectGolden(config, golden);
}

std::string OracleName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return CaseName(std::get<0>(info.param), std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllExecutors, FrontierOracleTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0, 1, 2)),
    OracleName);

// --- Frontier scenarios ------------------------------------------------------

/// Lease expiry replaces the watchdog: the frontier lease alone ages a
/// stalled source out, unwedges the graph, and surfaces the degradation in
/// the frontier counters.
TEST(FrontierScenarioTest, LeaseExpiryReplacesWatchdog) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.arrivals = ArrivalKind::kConstant;  // deterministic gaps
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;  // 1s gaps: always inside the 5s lease
  config.horizon = 90 * kSecond;
  config.warmup = 0;
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 20 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault_target = 1;
  config.lease.duration = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.lease_expired_ets, 0u);
  EXPECT_GT(result.frontier_lease_expiries, 0u);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  // The stalled stream revived once at the end of its window: absorbed as
  // a single suspect strike, never quarantined.
  EXPECT_GE(result.frontier_revivals, 1u);
  EXPECT_EQ(result.frontier_quarantines, 0u);
}

/// A dead source is aged out by its lease; dead is dead, so it never
/// revives and is never quarantined.
TEST(FrontierScenarioTest, LeaseAgesOutDeadSourceWithoutRevival) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.arrivals = ArrivalKind::kConstant;  // deterministic gaps
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;
  config.horizon = 90 * kSecond;
  config.warmup = 0;
  config.fault.kind = FaultKind::kDeath;
  config.fault.start = 10 * kSecond;
  config.fault_target = 1;
  config.lease.duration = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.lease_expired_ets, 0u);
  EXPECT_GT(result.frontier_lease_expiries, 0u);
  EXPECT_TRUE(result.degraded);
  // Dead is dead: no revival, so no flap violation for an honest death.
  EXPECT_EQ(result.frontier_revivals, 0u);
  EXPECT_EQ(result.frontier_quarantines, 0u);
}

/// The tentpole flap scenario: a producer that repeatedly dies past its
/// lease and revives walks into quarantine (flap damping), is re-admitted
/// after a clean window, and the whole episode never regresses the sink's
/// timestamp order.
TEST(FrontierScenarioTest, FlappingSourceQuarantinedThenReadmitted) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.arrivals = ArrivalKind::kConstant;  // deterministic gaps
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;  // 1s gaps: always inside the 2s lease
  config.horizon = 200 * kSecond;
  config.warmup = 0;
  // Throttle the on-demand ETS path for the whole run: a silent stream
  // must be unwedged by its lease, not papered over by demand-driven
  // punctuation (same trick as the chaos lease throttle test).
  config.ets_min_interval = 600 * kSecond;
  config.lease.duration = 2 * kSecond;

  // Dead/alive phases of 5s across [30s, 70s): four die-and-revive cycles,
  // each one a lease expiry followed by a revival violation.
  config.fault.kind = FaultKind::kFlap;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault.punct_period = 5 * kSecond;
  config.fault_target = 0;  // the fast stream is the flapper

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);  // flapping never regresses ETS

  // Four revivals: 1 → suspect, 3 more strikes → quarantined.
  EXPECT_GE(result.frontier_revivals, 4u);
  EXPECT_GE(result.frontier_quarantines, 1u);
  EXPECT_GE(result.frontier_lease_expiries, 4u);
  EXPECT_GT(result.lease_expired_ets, 0u);

  // 130 clean virtual seconds after the last flap: re-admitted, probation
  // served, fully healthy again — the hysteresis absorbed the episode.
  EXPECT_EQ(result.frontier_quarantined_now, 0u);
  EXPECT_EQ(result.frontier_degraded_now, 0u);
}

/// Acceptance scenario: one stalled source, one punctuation-regressing
/// source, and one flapping source at the same time. The run completes, the
/// frontier advances, and the misbehaving sources are visible in the
/// frontier counters instead of wedging the graph.
TEST(FrontierScenarioTest, ThreeMisbehavingSourcesDoNotWedgeTheRun) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.arrivals = ArrivalKind::kConstant;
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;
  config.num_slow_streams = 3;  // sources: 0 fast, 1..3 slow
  config.horizon = 200 * kSecond;
  config.warmup = 0;
  config.ets_min_interval = 600 * kSecond;  // the lease does the unwedging
  config.lease.duration = 2 * kSecond;
  config.violations = ViolationPolicy::kQuarantine;

  // Source 1 stalls for 30s.
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault_target = 1;
  // Source 2's heartbeat logic regresses its punctuation every 2s.
  FaultSpec regress;
  regress.kind = FaultKind::kRegressingPunct;
  regress.source = 2;
  regress.start = 30 * kSecond;
  regress.duration = 30 * kSecond;
  regress.punct_period = 2 * kSecond;
  regress.magnitude = 2 * kSecond;
  config.extra_faults.push_back(regress);
  // Source 3 flaps: 5s dead / 5s alive across [30s, 70s).
  FaultSpec flap;
  flap.kind = FaultKind::kFlap;
  flap.source = 3;
  flap.start = 30 * kSecond;
  flap.duration = 40 * kSecond;
  flap.punct_period = 5 * kSecond;
  config.extra_faults.push_back(flap);

  ScenarioResult result = RunScenario(config);

  // Completion under triple fault: data keeps flowing, order holds.
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  EXPECT_GT(result.fault_events, 0u);

  // The stalled source was aged out by its lease (degraded, not wedged).
  EXPECT_GT(result.lease_expired_ets, 0u);
  EXPECT_TRUE(result.degraded);

  // Both liars walked into quarantine; the honest stall did not.
  EXPECT_GE(result.frontier_quarantines, 2u);
  EXPECT_GE(result.frontier_violations, 5u);
  EXPECT_GE(result.frontier_revivals, 4u);

  // The frontier kept advancing: by the horizon every stream has promised
  // far past the fault windows.
  EXPECT_GT(result.frontier_bound, 100 * kSecond);
}

}  // namespace
}  // namespace dsms

// The frozen scheduler oracle. Every executor finds runnable operators
// through its ReadyTracker, and the choice must be the one a full pass over
// the operator table would make: DFS takes the lowest-id candidate with
// work, greedy-memory breaks priority and depth ties by lowest id, and
// round-robin visits candidates in cyclic order from its cursor. The golden
// rows below pin that choice at the strongest level the simulator offers:
// an FNV-1a digest over EVERY buffer push and pop of the whole run (arc id +
// full tuple contents, in order), the sink digest, every ExecStats counter,
// delivery counts, latency figures, queue peaks and idle-waiting metrics.
//
// The rows were captured at eb7fa9792afd7d12d71debe9922b83734ae5d23f, where
// each executor still carried that O(n) full-table scan beside its ready
// queue, and both produced these values on every row. Always seed 42:
// DSMS_TEST_SEED must not move a frozen value.

#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/time.h"
#include "exec/exec_stats.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

/// Frozen outputs of one configuration.
struct GoldenRow {
  const char* name;
  uint64_t trace_events;
  uint64_t trace_hash;
  uint64_t sink_digest;
  ExecStats exec;
  uint64_t tuples_delivered;
  double mean_latency_ms;
  double max_latency_ms;
  int64_t peak_queue_total;
  int64_t peak_queue_data;
  double idle_fraction;
  uint64_t blocked_intervals;
  uint64_t ets_generated;
  uint64_t punctuation_eliminated;
  uint64_t order_violations;
  uint64_t buffer_order_violations;
};

void ExpectGolden(ScenarioConfig config, const GoldenRow& golden) {
  config.record_trace = true;
  const ScenarioResult r = RunScenario(config);
  const std::string label = golden.name;

  // Byte-identical tuple movement, in order, across every arc.
  EXPECT_EQ(r.trace_events, golden.trace_events) << label;
  EXPECT_EQ(r.trace_hash, golden.trace_hash) << label;
  EXPECT_EQ(r.sink_digest, golden.sink_digest) << label;

  // Identical executor accounting (steps by kind, backtracks, ETS, scans,
  // batch counters).
  EXPECT_TRUE(r.exec == golden.exec)
      << label << "\n  got: " << r.exec.ToString()
      << "\n want: " << golden.exec.ToString();

  // Identical headline metrics.
  EXPECT_EQ(r.tuples_delivered, golden.tuples_delivered) << label;
  EXPECT_DOUBLE_EQ(r.mean_latency_ms, golden.mean_latency_ms) << label;
  EXPECT_DOUBLE_EQ(r.max_latency_ms, golden.max_latency_ms) << label;
  EXPECT_EQ(r.peak_queue_total, golden.peak_queue_total) << label;
  EXPECT_EQ(r.peak_queue_data, golden.peak_queue_data) << label;
  EXPECT_DOUBLE_EQ(r.idle_fraction, golden.idle_fraction) << label;
  EXPECT_EQ(r.blocked_intervals, golden.blocked_intervals) << label;
  EXPECT_EQ(r.ets_generated, golden.ets_generated) << label;
  EXPECT_EQ(r.punctuation_eliminated, golden.punctuation_eliminated)
      << label;
  EXPECT_EQ(r.order_violations, golden.order_violations) << label;
  EXPECT_EQ(r.buffer_order_violations, golden.buffer_order_violations)
      << label;
}

ScenarioConfig ShortConfig(ScenarioKind kind) {
  ScenarioConfig config;
  config.kind = kind;
  config.horizon = 120 * kSecond;
  config.warmup = 10 * kSecond;
  config.seed = 42;
  if (kind == ScenarioKind::kPeriodicEts) config.heartbeat_rate = 10.0;
  return config;
}

// Row layout: name, trace_events, trace_hash, sink_digest,
//   {ExecStats: data_steps, punctuation_steps, empty_steps, backtracks,
//    backtrack_hops, ets_generated, lease_expired_ets, idle_returns,
//    work_scans, batches, batch_rows, batch_punct_splits,
//    batch_fallback_steps},
//   tuples_delivered, mean_latency_ms, max_latency_ms,
//   peak_queue_total, peak_queue_data, idle_fraction, blocked_intervals,
//   ets_generated, punctuation_eliminated, order_violations,
//   buffer_order_violations.

/// The (kind x executor x shape) matrix scenario_test.cc sweeps; row index
/// is kind * 9 + executor * 3 + shape.
constexpr GoldenRow kSweepRows[] = {
    {"NoEtsDfsUnion", 34093, 0x3bc997f788c59ee2, 0x639fd8d165741b11,
     {16823, 0, 6118, 11464, 17605, 0, 0, 6118, 12246, 0, 0, 0, 0},
     5291, 13083.556117747117, 38616.971,
     1879, 1879, 0.997684275, 8, 0, 0, 0, 0},
    {"NoEtsDfsJoin", 25761, 0x7ac8c8dc56cf969d, 0x7d0dc8d9e5069ced,
     {12657, 0, 6118, 6636, 12775, 0, 0, 6125, 12257, 0, 0, 0, 0},
     1126, 8843.866092362345, 38617.012,
     1879, 1879, 0.998760575, 8, 0, 0, 0, 0},
    {"NoEtsDfsAggregate", 12502, 0x5544f0f4ce11dafa, 0x132cffe4ae9aeddd,
     {6251, 0, 0, 6133, 6148, 0, 0, 6130, 12263, 0, 0, 0, 0},
     110, 12874.368409090908, 37839.439,
     38, 38, 0.0, 0, 0, 0, 0, 0},
    {"NoEtsRoundRobinUnion", 34093, 0x145771d985f5d9f2, 0x280e5f8f9d127f51,
     {16823, 0, 0, 0, 0, 0, 0, 6119, 6119, 0, 0, 0, 0},
     5291, 13082.406144396145, 38617.137,
     1879, 1879, 0.9977754333333333, 8, 0, 0, 0, 0},
    {"NoEtsRoundRobinJoin", 25761, 0x5e62ef1e00a08921, 0x49abb76886c23111,
     {12657, 0, 0, 0, 0, 0, 0, 6126, 6126, 0, 0, 0, 0},
     1126, 8843.96028241563, 38617.19,
     1879, 1879, 0.9987691833333333, 8, 0, 0, 0, 0},
    {"NoEtsRoundRobinAggregate", 12502, 0x115feaa10006d272, 0x132cffe4ae9aeddd,
     {6251, 0, 0, 0, 0, 0, 0, 6130, 6130, 0, 0, 0, 0},
     110, 12874.368409090908, 37839.439,
     38, 38, 0.0, 0, 0, 0, 0, 0},
    {"NoEtsGreedyUnion", 34093, 0x28d055be8a449b3a, 0x280e5f8f9d127f51,
     {16823, 0, 0, 0, 0, 0, 0, 6119, 22942, 0, 0, 0, 0},
     5291, 13082.319067284068, 38616.962,
     1879, 1879, 0.9977687666666667, 8, 0, 0, 0, 0},
    {"NoEtsGreedyJoin", 25761, 0xe2c40a310d77a681, 0x49abb76886c23111,
     {12657, 0, 0, 0, 0, 0, 0, 6126, 18783, 0, 0, 0, 0},
     1126, 8843.81268028419, 38617.015,
     1879, 1879, 0.998768975, 8, 0, 0, 0, 0},
    {"NoEtsGreedyAggregate", 12502, 0x115feaa10006d272, 0x132cffe4ae9aeddd,
     {6251, 0, 0, 0, 0, 0, 0, 6130, 12381, 0, 0, 0, 0},
     110, 12874.368409090908, 37839.439,
     38, 38, 0.0, 0, 0, 0, 0, 0},
    {"PeriodicDfsUnion", 40217, 0xd041d0222a13c205, 0x7b9834d52a9c704d,
     {17707, 2399, 6038, 13107, 20350, 0, 0, 7308, 14621, 0, 0, 0, 0},
     5275, 50.24594388625592, 100.025,
     14, 13, 0.785167375, 1194, 0, 1, 0, 0},
    {"PeriodicDfsJoin", 33331, 0x031d1f543cce30bd, 0x6fc2d30629c73548,
     {13202, 3461, 6038, 7939, 16245, 0, 0, 7310, 14629, 0, 0, 0, 0},
     1132, 38.806508833922265, 99.921,
     116, 116, 0.7851109, 1194, 0, 1063, 0, 0},
    {"PeriodicDfsAggregate", 17556, 0x10b5dc54c649655d, 0xcc28ef1f606cc15c,
     {6260, 2518, 0, 7332, 8659, 0, 0, 7323, 14655, 0, 0, 0, 0},
     110, 14.338645454545455, 14.346,
     3, 2, 0.0, 0, 0, 120, 0, 0},
    {"PeriodicRoundRobinUnion", 40221, 0x2a5063808d6f7e7d, 0xbc7798ae6a973a21,
     {17707, 2401, 0, 0, 0, 0, 0, 7311, 7311, 0, 0, 0, 0},
     5275, 50.31544379146919, 100.2,
     14, 13, 0.7852134333333334, 1194, 0, 3, 0, 0},
    {"PeriodicRoundRobinJoin", 33331, 0xd2e2f644c1d3eab1, 0xb8822c5f7c782ca0,
     {13202, 3461, 0, 0, 0, 0, 0, 7312, 7312, 0, 0, 0, 0},
     1132, 38.843979681978794, 100.1,
     116, 116, 0.7851586333333334, 1194, 0, 1063, 0, 0},
    {"PeriodicRoundRobinAggregate",
     17556, 0xaaee928803e37465, 0xcc28ef1f606cc15c,
     {6260, 2518, 0, 0, 0, 0, 0, 7323, 7323, 0, 0, 0, 0},
     110, 14.333627272727274, 14.336,
     3, 2, 0.0, 0, 0, 120, 0, 0},
    {"PeriodicGreedyUnion", 40217, 0xb8221cd196cb1221, 0x6116360e5c20b771,
     {17707, 2399, 0, 0, 0, 0, 0, 7311, 27417, 0, 0, 0, 0},
     5275, 50.24129876777251, 100.025,
     14, 13, 0.7851870583333334, 1194, 0, 1, 0, 0},
    {"PeriodicGreedyJoin", 33331, 0xac49246c4e67c2d5, 0x2278085a1316e2e4,
     {13202, 3461, 0, 0, 0, 0, 0, 7312, 23975, 0, 0, 0, 0},
     1132, 38.803608657243814, 99.925,
     116, 116, 0.7851318833333333, 1194, 0, 1063, 0, 0},
    {"PeriodicGreedyAggregate", 17556, 0xc348b5cdf9116f35, 0xcc28ef1f606cc15c,
     {6260, 2518, 0, 0, 0, 0, 0, 7323, 16101, 0, 0, 0, 0},
     110, 14.333854545454546, 14.361,
     3, 2, 0.0, 0, 0, 120, 0, 0},
    {"OnDemandDfsUnion", 58586, 0xe61c4cc0453bf98a, 0x61c58607b0aa01c0,
     {17717, 11576, 5788, 17709, 29262, 5788, 0, 6096, 12198, 0, 0, 0, 0},
     5276, 0.08125530705079606, 0.175,
     3, 2, 0.0026046, 5788, 5788, 0, 0, 0},
    {"OnDemandDfsJoin", 59914, 0x57158f47e603542a, 0x89a7e5fbac127794,
     {13207, 16750, 5788, 12535, 29261, 5788, 0, 6097, 12202, 0, 0, 0, 0},
     1132, 0.6912455830388693, 2.931,
     116, 115, 0.0026046, 5788, 5788, 5174, 0, 0},
    {"OnDemandDfsAggregate", 13234, 0x59704342d7e5518a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 12443, 18880, 119, 0, 6129, 12381, 0, 0, 0, 0},
     110, 18.82023636363636, 65.782,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"OnDemandRoundRobinUnion", 58596, 0x7bab1d4f1b6db361, 0x54d1f7dd0680296c,
     {17717, 11581, 0, 5788, 11576, 5788, 0, 6099, 11887, 0, 0, 0, 0},
     5276, 0.09929378316906748, 0.209,
     3, 2, 0.00260835, 5788, 5788, 5, 0, 0},
    {"OnDemandRoundRobinJoin", 59914, 0xb5a4fd5f19a42966, 0xd22d8cdbfd29546c,
     {13207, 16750, 0, 5788, 11576, 5788, 0, 6100, 11888, 0, 0, 0, 0},
     1132, 0.70923851590106, 2.949,
     116, 115, 0.0026054333333333335, 5788, 5788, 5174, 0, 0},
    {"OnDemandRoundRobinAggregate",
     13234, 0xb5ddcf45086acf2a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 6191, 12382, 119, 0, 6129, 6248, 0, 0, 0, 0},
     110, 18.812636363636365, 65.778,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"OnDemandGreedyUnion", 58586, 0xf7590a30916cfc92, 0xe674be431bad4b00,
     {17717, 11576, 0, 5788, 11576, 5788, 0, 6099, 35392, 0, 0, 0, 0},
     5276, 0.07923028809704322, 0.149,
     3, 2, 0.0026054333333333335, 5788, 5788, 0, 0, 0},
    {"OnDemandGreedyJoin", 59914, 0x56febd156a2232ee, 0x4febbb2cb4fbf1d0,
     {13207, 16750, 0, 5788, 11576, 5788, 0, 6100, 36057, 0, 0, 0, 0},
     1132, 0.68923851590106, 2.929,
     116, 115, 0.0026054333333333335, 5788, 5788, 5174, 0, 0},
    {"OnDemandGreedyAggregate", 13234, 0x4a04cb74434bae52, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 6191, 12382, 119, 0, 6129, 12746, 0, 0, 0, 0},
     110, 18.812863636363637, 65.778,
     2, 1, 0.0, 0, 119, 119, 0, 0},
    {"LatentDfsUnion", 35434, 0x4845d6e27a83c3e6, 0x6e87cfa8605df18d,
     {17717, 0, 0, 6133, 17708, 0, 0, 6115, 12239, 0, 0, 0, 0},
     5276, 0.05006842304776346, 0.104,
     2, 2, 0.0, 0, 0, 0, 0, 0},
    {"LatentDfsJoin", 26414, 0xdcdf341ac652c3fa, 0xff7dd02f6810f287,
     {13207, 0, 0, 6133, 12534, 0, 0, 6125, 12253, 0, 0, 0, 0},
     1132, 0.6601660777385159, 2.9,
     115, 115, 0.0, 0, 0, 0, 0, 0},
    {"LatentDfsAggregate", 12502, 0xfe4c95b8784ed4d6, 0x132cffe4ae9aeddd,
     {6251, 0, 0, 6133, 6148, 0, 0, 6130, 12263, 0, 0, 0, 0},
     110, 12874.368409090908, 37839.439,
     38, 38, 0.0, 0, 0, 0, 0, 0},
    {"LatentRoundRobinUnion", 35434, 0xcab4c4f9a49a3452, 0xfc59901b61478726,
     {17717, 0, 0, 0, 0, 0, 0, 6117, 6117, 0, 0, 0, 0},
     5276, 0.050061599696739956, 0.1,
     2, 2, 0.0, 0, 0, 0, 0, 0},
    {"LatentRoundRobinJoin", 26414, 0x0f432dcd99adadd2, 0x91bf5eb8c5368c9b,
     {13207, 0, 0, 0, 0, 0, 0, 6125, 6125, 0, 0, 0, 0},
     1132, 0.6601590106007067, 2.9,
     115, 115, 0.0, 0, 0, 0, 0, 0},
    {"LatentRoundRobinAggregate", 12502, 0xb54f99701f36e3be, 0x132cffe4ae9aeddd,
     {6251, 0, 0, 0, 0, 0, 0, 6130, 6130, 0, 0, 0, 0},
     110, 12874.368409090908, 37839.439,
     38, 38, 0.0, 0, 0, 0, 0, 0},
    {"LatentGreedyUnion", 35434, 0x0446dc081787c47e, 0xfc59901b61478726,
     {17717, 0, 0, 0, 0, 0, 0, 6117, 23834, 0, 0, 0, 0},
     5276, 0.050080553449583017, 0.1,
     2, 2, 0.0, 0, 0, 0, 0, 0},
    {"LatentGreedyJoin", 26414, 0x0f432dcd99adadd2, 0x91bf5eb8c5368c9b,
     {13207, 0, 0, 0, 0, 0, 0, 6125, 19332, 0, 0, 0, 0},
     1132, 0.6601590106007067, 2.9,
     115, 115, 0.0, 0, 0, 0, 0, 0},
    {"LatentGreedyAggregate", 12502, 0xb54f99701f36e3be, 0x132cffe4ae9aeddd,
     {6251, 0, 0, 0, 0, 0, 0, 6130, 12381, 0, 0, 0, 0},
     110, 12874.368409090908, 37839.439,
     38, 38, 0.0, 0, 0, 0, 0, 0},
};

/// External timestamps with skew, bursty arrivals, an n-ary fan-in and the
/// strict union without TSM registers (on-demand ETS); row index is
/// regime * 3 + executor.
constexpr GoldenRow kRegimeRows[] = {
    {"ExternalDfs", 48905, 0xe01d4531cf8ab8c4, 0xb867b6e4760e0a71,
     {17703, 6746, 6121, 20255, 36989, 2251, 0, 6099, 12233, 0, 0, 0, 0},
     5279, 142.7147770411063, 333.56,
     20, 19, 0.9970591583333334, 2259, 2251, 2244, 0, 0},
    {"ExternalRoundRobin", 48917, 0x65c0ff94d1ab5f16, 0xeecf002add4e266a,
     {17703, 6752, 0, 8350, 16700, 2252, 0, 6102, 8354, 0, 0, 0, 0},
     5279, 142.76729835196062, 333.733,
     20, 19, 0.9982849166666666, 2260, 2252, 2248, 0, 0},
    {"ExternalGreedy", 48919, 0x0a32cbd1381c9ae5, 0x997055a1c092a464,
     {17703, 6753, 0, 8350, 16700, 2252, 0, 6102, 30558, 0, 0, 0, 0},
     5279, 142.71648096230348, 333.558,
     20, 19, 0.9971515833333333, 2260, 2252, 2249, 0, 0},
    {"BurstyDfs", 25010, 0x4aaed94636810512, 0x984b5363bba76f08,
     {7595, 4910, 2455, 7544, 12391, 2455, 0, 2495, 5016, 0, 0, 0, 0},
     1544, 0.08382901554404146, 0.229,
     4, 3, 0.00110475, 2455, 2455, 0, 0, 0},
    {"BurstyRoundRobin", 25074, 0x661d3e8818e1f9c6, 0x849326694d557ae0,
     {7595, 4942, 0, 2455, 4910, 2455, 0, 2502, 4957, 0, 0, 0, 0},
     1544, 0.10258160621761658, 0.259,
     4, 3, 0.0011290416666666666, 2455, 2455, 32, 0, 0},
    {"BurstyGreedy", 25010, 0x6d0335183e0b0fd2, 0xc417cdccb7071204,
     {7595, 4910, 0, 2455, 4910, 2455, 0, 2502, 15007, 0, 0, 0, 0},
     1544, 0.08151943005181347, 0.199,
     4, 3, 0.0011101666666666666, 2455, 2455, 0, 0, 0},
    {"NaryDfs", 128008, 0x1d4e154eebebd6ad, 0x313f3b2dd5b58920,
     {17753, 46251, 5800, 29296, 63940, 17351, 0, 6075, 12156, 0, 0, 0, 0},
     5289, 0.2237347324636037, 0.317,
     3, 2, 0.009443975, 5800, 17351, 11549, 0, 0},
    {"NaryRoundRobin", 128028, 0xaa825963c466ffd9, 0x1c637537844cdd98,
     {17753, 46261, 0, 17340, 34680, 17340, 0, 6079, 23419, 0, 0, 0, 0},
     5289, 0.23794252221591983, 0.347,
     3, 2, 0.009271916666666666, 5800, 17340, 11581, 0, 0},
    {"NaryGreedy", 128024, 0x3ccfddaa41edde11, 0x188bfd2ffeed3f54,
     {17753, 46259, 0, 17340, 34680, 17340, 0, 6079, 70091, 0, 0, 0, 0},
     5289, 0.21788391000189072, 0.307,
     3, 2, 0.009262, 5800, 17340, 11579, 0, 0},
    {"StrictDfs", 70087, 0x6204717dce25d8f5, 0xb3f1c87482b02cfc,
     {17717, 17326, 9, 11923, 35023, 5776, 0, 6090, 12187, 0, 0, 0, 0},
     5276, 0.15258813495072024, 35.248,
     3, 2, 0.005208275, 5783, 5776, 5775, 0, 0},
    {"StrictRoundRobin", 70057, 0x5114a343401bdbbe, 0xa63406a780e830bc,
     {17717, 17311, 0, 5778, 11556, 5771, 0, 6092, 11863, 0, 0, 0, 0},
     5276, 0.150658453373768, 35.24,
     3, 2, 0.005114891666666667, 5778, 5771, 5770, 0, 0},
    {"StrictGreedy", 70057, 0x951a9f83bba41942, 0xcdb30328bd976c38,
     {17717, 17311, 0, 5778, 11556, 5771, 0, 6092, 41120, 0, 0, 0, 0},
     5276, 0.15058074298711144, 35.26,
     3, 2, 0.005112475, 5778, 5771, 5770, 0, 0},
};

/// Coarse timestamp granularity under round-robin with quantum 1.
constexpr GoldenRow kCoarseRow =
    {"CoarseRoundRobinQuantum1", 40182, 0xe33fd8d94952bf9a, 0x5846b89a2568be77,
     {17717, 2374, 0, 1187, 2374, 1187, 0, 6109, 7296, 0, 0, 0, 0},
     5276, 0.05605060652009098, 0.104,
     3, 2, 0.0005343583333333333, 1187, 1187, 0, 0, 0};

/// Four streams at 50 tuples/s each into the union. Where the sweep has one
/// busy stream, here several filters often hold work at once when the
/// executor looks for it, so these rows pin how that tie is broken: lowest
/// id first for DFS and greedy-memory, cyclic from the cursor for
/// round-robin. Row index is kind_index * 3 + executor over (NoEts,
/// OnDemand).
constexpr GoldenRow kContendedRows[] = {
    {"NoEtsDfsUnion4", 140324, 0xc30f1f97f5bf1c30, 0x05549a54050532cf,
     {70159, 0, 18357, 41613, 70990, 0, 0, 23800, 47887, 0, 0, 0, 0},
     21070, 39.885227906976745, 288.25,
     48, 48, 0.9924370416666667, 4212, 0, 0, 0, 0},
    {"NoEtsRoundRobinUnion4", 140324, 0xa060b593e56fecb8, 0x23933c7e1da6444b,
     {70159, 0, 0, 0, 0, 0, 0, 23857, 23857, 0, 0, 0, 0},
     21070, 39.92380261034646, 288.469,
     49, 49, 0.9951866833333334, 4216, 0, 0, 0, 0},
    {"NoEtsGreedyUnion4", 140324, 0x5211e0f6777a9dd8, 0x23933c7e1da6444b,
     {70159, 0, 0, 0, 0, 0, 0, 23857, 94016, 0, 0, 0, 0},
     21070, 39.8701172757475, 288.294,
     49, 49, 0.9926731416666666, 4189, 0, 0, 0, 0},
    {"OnDemandDfsUnion4", 501896, 0xec19c3c985c97371, 0xcfb4fc299e1873fd,
     {70171, 180777, 22807, 114848, 250386, 67862, 0, 22924, 46529, 0, 0, 0, 0},
     21071, 0.22612196858241185, 0.396,
     4, 3, 0.037064208333333334, 22806, 67862, 45053, 0, 0},
    {"OnDemandRoundRobinUnion4", 501264, 0x752984d8f5e0e865, 0x736b6dbfcdea8d7d,
     {70171, 180461, 0, 67735, 135470, 67735, 0, 22986, 90721, 0, 0, 0, 0},
     21071, 0.23981870817711548, 0.397,
     4, 3, 0.036445375, 22907, 67735, 44991, 0, 0},
    {"OnDemandGreedyUnion4", 501704, 0x545c64058a5c0575, 0x8b291e5b7ff2da21,
     {70171, 180681, 0, 67814, 135628, 67814, 0, 22998, 273850, 0, 0, 0, 0},
     21071, 0.2193930995206682, 0.362,
     4, 4, 0.036329466666666664, 22914, 67814, 45053, 0, 0},
};

/// Batch mode (on-demand ETS): the buffer events of every row run, the
/// batch counters and the kBatchDrain cost charges. Row index is
/// batch_index * 6 + shape * 2 + executor (DFS, round-robin). Batch-vs-scalar
/// equivalence is a different contract with a different oracle; see
/// tests/batch_exec_test.cc.
constexpr GoldenRow kBatchRows[] = {
    {"Batch1UnionDfs", 58586, 0xe61c4cc0453bf98a, 0x61c58607b0aa01c0,
     {17717, 11576, 5788, 17709, 29262, 5788, 0, 6096, 12198,
      6133, 6133, 0, 28948},
     5276, 0.08125530705079606, 0.175,
     3, 2, 0.0026046, 5788, 5788, 0, 0, 0},
    {"Batch1UnionRoundRobin", 58596, 0x7bab1d4f1b6db361, 0x54d1f7dd0680296c,
     {17717, 11581, 0, 5788, 11576, 5788, 0, 6099, 11887, 6133, 6133, 0, 23165},
     5276, 0.09929378316906748, 0.209,
     3, 2, 0.00260835, 5788, 5788, 5, 0, 0},
    {"Batch1JoinDfs", 59914, 0x57158f47e603542a, 0x89a7e5fbac127794,
     {13207, 16750, 5788, 12535, 29261, 5788, 0, 6097, 12202,
      6133, 6133, 0, 29612},
     1132, 0.6912455830388693, 2.931,
     116, 115, 0.0026046, 5788, 5788, 5174, 0, 0},
    {"Batch1JoinRoundRobin", 59914, 0xb5a4fd5f19a42966, 0xd22d8cdbfd29546c,
     {13207, 16750, 0, 5788, 11576, 5788, 0, 6100, 11888, 6133, 6133, 0, 23824},
     1132, 0.70923851590106, 2.949,
     116, 115, 0.0026054333333333335, 5788, 5788, 5174, 0, 0},
    {"Batch1AggregateDfs", 13234, 0x59704342d7e5518a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 12443, 18880, 119, 0, 6129, 12381, 16, 16, 0, 6601},
     110, 18.82023636363636, 65.782,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"Batch1AggregateRoundRobin", 13234, 0xb5ddcf45086acf2a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 6191, 12382, 119, 0, 6129, 6248, 16, 16, 0, 6601},
     110, 18.812636363636365, 65.778,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"Batch7UnionDfs", 58586, 0xe61c4cc0453bf98a, 0x61c58607b0aa01c0,
     {17717, 11576, 5788, 17709, 29262, 5788, 0, 6096, 12198,
      6133, 6133, 0, 28948},
     5276, 0.08125530705079606, 0.175,
     3, 2, 0.0026046, 5788, 5788, 0, 0, 0},
    {"Batch7UnionRoundRobin", 58596, 0x7bab1d4f1b6db361, 0x54d1f7dd0680296c,
     {17717, 11581, 0, 5788, 11576, 5788, 0, 6099, 11887, 6133, 6133, 0, 23165},
     5276, 0.09929378316906748, 0.209,
     3, 2, 0.00260835, 5788, 5788, 5, 0, 0},
    {"Batch7JoinDfs", 59914, 0x57158f47e603542a, 0x89a7e5fbac127794,
     {13207, 16750, 5788, 12535, 29261, 5788, 0, 6097, 12202,
      6133, 6133, 0, 29612},
     1132, 0.6912455830388693, 2.931,
     116, 115, 0.0026046, 5788, 5788, 5174, 0, 0},
    {"Batch7JoinRoundRobin", 59914, 0xb5a4fd5f19a42966, 0xd22d8cdbfd29546c,
     {13207, 16750, 0, 5788, 11576, 5788, 0, 6100, 11888, 6133, 6133, 0, 23824},
     1132, 0.70923851590106, 2.949,
     116, 115, 0.0026054333333333335, 5788, 5788, 5174, 0, 0},
    {"Batch7AggregateDfs", 13234, 0x59704342d7e5518a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 12443, 18880, 119, 0, 6129, 12381, 16, 16, 0, 6601},
     110, 18.82023636363636, 65.782,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"Batch7AggregateRoundRobin", 13234, 0xb5ddcf45086acf2a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 6191, 12382, 119, 0, 6129, 6248, 16, 16, 0, 6601},
     110, 18.812636363636365, 65.778,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"Batch256UnionDfs", 58586, 0xe61c4cc0453bf98a, 0x61c58607b0aa01c0,
     {17717, 11576, 5788, 17709, 29262, 5788, 0, 6096, 12198,
      6133, 6133, 0, 28948},
     5276, 0.08125530705079606, 0.175,
     3, 2, 0.0026046, 5788, 5788, 0, 0, 0},
    {"Batch256UnionRoundRobin", 58596, 0x7bab1d4f1b6db361, 0x54d1f7dd0680296c,
     {17717, 11581, 0, 5788, 11576, 5788, 0, 6099, 11887, 6133, 6133, 0, 23165},
     5276, 0.09929378316906748, 0.209,
     3, 2, 0.00260835, 5788, 5788, 5, 0, 0},
    {"Batch256JoinDfs", 59914, 0x57158f47e603542a, 0x89a7e5fbac127794,
     {13207, 16750, 5788, 12535, 29261, 5788, 0, 6097, 12202,
      6133, 6133, 0, 29612},
     1132, 0.6912455830388693, 2.931,
     116, 115, 0.0026046, 5788, 5788, 5174, 0, 0},
    {"Batch256JoinRoundRobin", 59914, 0xb5a4fd5f19a42966, 0xd22d8cdbfd29546c,
     {13207, 16750, 0, 5788, 11576, 5788, 0, 6100, 11888, 6133, 6133, 0, 23824},
     1132, 0.70923851590106, 2.949,
     116, 115, 0.0026054333333333335, 5788, 5788, 5174, 0, 0},
    {"Batch256AggregateDfs", 13234, 0x59704342d7e5518a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 12443, 18880, 119, 0, 6129, 12381, 16, 16, 0, 6601},
     110, 18.82023636363636, 65.782,
     3, 2, 0.0, 0, 119, 119, 0, 0},
    {"Batch256AggregateRoundRobin",
     13234, 0xb5ddcf45086acf2a, 0xcc28ef1f606cc15c,
     {6260, 357, 0, 6191, 12382, 119, 0, 6129, 6248, 16, 16, 0, 6601},
     110, 18.812636363636365, 65.778,
     3, 2, 0.0, 0, 119, 119, 0, 0},
};

using SweepParam = std::tuple<int, int, int>;

class TraceEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  static const char* kKinds[] = {"NoEts", "Periodic", "OnDemand", "Latent"};
  static const char* kExecs[] = {"Dfs", "RoundRobin", "Greedy"};
  static const char* kShapes[] = {"Union", "Join", "Aggregate"};
  return std::string(kKinds[std::get<0>(info.param)]) +
         kExecs[std::get<1>(info.param)] + kShapes[std::get<2>(info.param)];
}

TEST_P(TraceEquivalenceSweep, ReadyQueueMatchesScanReference) {
  auto [kind, executor, shape] = GetParam();
  const GoldenRow& golden = kSweepRows[kind * 9 + executor * 3 + shape];
  ASSERT_EQ(SweepName(::testing::TestParamInfo<SweepParam>(GetParam(), 0)),
            golden.name);
  ScenarioConfig config = ShortConfig(static_cast<ScenarioKind>(kind));
  config.executor = static_cast<ExecutorKind>(executor);
  config.shape = static_cast<QueryShape>(shape);
  ExpectGolden(config, golden);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraceEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 4),  // ScenarioKind A-D
                       ::testing::Range(0, 3),  // Dfs/RoundRobin/Greedy
                       ::testing::Range(0, 3)),  // Union/Join/Aggregate
    SweepName);

/// One hard regime of kRegimeRows under each of the three executors.
void ExpectRegime(int regime, void (*apply)(ScenarioConfig*)) {
  static const char* kExecs[] = {"Dfs", "RoundRobin", "Greedy"};
  static const char* kRegimes[] = {"External", "Bursty", "Nary", "Strict"};
  for (int executor = 0; executor < 3; ++executor) {
    const GoldenRow& golden = kRegimeRows[regime * 3 + executor];
    ASSERT_EQ(std::string(kRegimes[regime]) + kExecs[executor], golden.name);
    ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
    config.executor = static_cast<ExecutorKind>(executor);
    apply(&config);
    ExpectGolden(config, golden);
  }
}

TEST(TraceEquivalenceTest, ExternalTimestampsWithSkew) {
  ExpectRegime(0, [](ScenarioConfig* config) {
    config->ts_kind = TimestampKind::kExternal;
    config->skew_bound = 100 * kMillisecond;
  });
}

TEST(TraceEquivalenceTest, BurstyArrivals) {
  ExpectRegime(1, [](ScenarioConfig* config) {
    config->arrivals = ArrivalKind::kBursty;
  });
}

TEST(TraceEquivalenceTest, NaryFanInUnion) {
  ExpectRegime(2, [](ScenarioConfig* config) {
    config->num_slow_streams = 3;
  });
}

TEST(TraceEquivalenceTest, StrictUnionWithoutTsmRegisters) {
  ExpectRegime(3, [](ScenarioConfig* config) {
    config->use_tsm_registers = false;
  });
}

TEST(TraceEquivalenceTest, CoarseGranularityAndSmallQuantum) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  config.executor = ExecutorKind::kRoundRobin;
  config.rr_quantum = 1;
  config.timestamp_granularity = 100 * kMillisecond;
  ExpectGolden(config, kCoarseRow);
}

TEST(TraceEquivalenceTest, ContendedFanInBreaksTiesInSchedulerOrder) {
  static const char* kExecs[] = {"Dfs", "RoundRobin", "Greedy"};
  static const char* kKindNames[] = {"NoEts", "OnDemand"};
  const ScenarioKind kKinds[] = {ScenarioKind::kNoEts,
                                 ScenarioKind::kOnDemandEts};
  for (int k = 0; k < 2; ++k) {
    for (int executor = 0; executor < 3; ++executor) {
      const GoldenRow& golden = kContendedRows[k * 3 + executor];
      ASSERT_EQ(std::string(kKindNames[k]) + kExecs[executor] + "Union4",
                golden.name);
      ScenarioConfig config = ShortConfig(kKinds[k]);
      config.executor = static_cast<ExecutorKind>(executor);
      config.num_slow_streams = 3;
      config.slow_rate = config.fast_rate;
      ExpectGolden(config, golden);
    }
  }
}

TEST(TraceEquivalenceTest, BatchModeKeepsSchedulerEquivalence) {
  static const char* kExecs[] = {"Dfs", "RoundRobin"};
  static const char* kShapes[] = {"Union", "Join", "Aggregate"};
  const size_t kBatches[] = {1, 7, 256};
  for (int b = 0; b < 3; ++b) {
    for (int shape = 0; shape < 3; ++shape) {
      for (int executor = 0; executor < 2; ++executor) {
        const GoldenRow& golden = kBatchRows[b * 6 + shape * 2 + executor];
        ASSERT_EQ("Batch" + std::to_string(kBatches[b]) + kShapes[shape] +
                      kExecs[executor],
                  golden.name);
        ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
        config.shape = static_cast<QueryShape>(shape);
        config.executor = static_cast<ExecutorKind>(executor);
        config.batch_size = kBatches[b];
        ExpectGolden(config, golden);
      }
    }
  }
}

}  // namespace
}  // namespace dsms

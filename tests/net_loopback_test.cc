// Loopback integration tests for the network ingestion subsystem: a real
// IngestServer on 127.0.0.1 fed by a real FeedClient over TCP.
//
// The headline test is output equivalence: the same seeded experiment file
// produces bit-identical sink output whether its feeds run through the
// discrete-event Simulation or are replayed over a socket into a
// frame-driven server. The rest exercise the defenses that only matter on
// a network: lease ETS for a feeder that dies mid-run, skew-contract
// violations routed to the ViolationPolicy, load shedding under
// backpressure, and garbage bytes closing one connection without taking
// down the server.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuple.h"
#include "exec/round_robin_executor.h"
#include "exec/sharded_executor.h"
#include "graph/query_graph.h"
#include "loopback_harness.h"
#include "net/feed_client.h"
#include "net/feed_schedule.h"
#include "net/ingest_server.h"
#include "net/wire_format.h"
#include "obs/metrics_registry.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/experiment_spec.h"

namespace dsms {
namespace {

// The served engine (tests/loopback_harness.h) with the clock mode and
// idle timeout each test picks.
struct ServerHarness : test::LoopbackHarness {
  explicit ServerHarness(const std::string& text,
                         IngestClock::Mode mode = IngestClock::Mode::kFrameDriven,
                         Duration idle_timeout = 0)
      : LoopbackHarness(text, [&](IngestServerOptions* options) {
          options->clock_mode = mode;
          options->idle_timeout = idle_timeout;
        }) {}
};

// A mixed internal/external plan with a heartbeat — enough structure that
// timestamp assignment, jitter, clamping, and punctuation all matter.
constexpr char kEquivalencePlan[] = R"(
stream A ts=internal
stream B ts=external skew=40ms
filter F in=A selectivity=0.8 seed=5
union U in=F,B
sink OUT in=U
feed A process=poisson rate=50 seed=21
feed B process=poisson rate=30 seed=22
heartbeat B period=250ms
run horizon=2s ets=on-demand
)";

// kEquivalencePlan with `keys` added to its run statement. The served
// stack must run the plan's executor, as the Simulation does.
std::string EquivalencePlanWith(const std::string& keys) {
  std::string plan = kEquivalencePlan;
  const std::string run = "run horizon=2s ets=on-demand";
  plan.replace(plan.find(run), run.size(), run + " " + keys);
  return plan;
}

TEST(NetLoopbackTest, FrameDrivenReplayMatchesSimulationBitForBit) {
  for (const std::string& plan :
       {std::string(kEquivalencePlan),
        EquivalencePlanWith("executor=round-robin quantum=4"),
        EquivalencePlanWith("shards=2")}) {
    SCOPED_TRACE(plan);
    // Reference run: the discrete-event simulation.
    Result<Experiment> sim_exp = ParseExperiment(plan);
    ASSERT_TRUE(sim_exp.ok());
    Sink* sim_sink = sim_exp->plan.graph->sinks().front();
    sim_sink->set_collect(true);
    Result<ExperimentReport> sim_report = RunExperiment(&*sim_exp);
    ASSERT_TRUE(sim_report.ok());
    ASSERT_GT(sim_sink->collected().size(), 0u);
    EXPECT_EQ(sim_report->buffer_order_violations, 0u);

    // Network run: the same file expanded to frames and replayed over TCP
    // into a frame-driven server.
    ServerHarness harness(plan);
    EXPECT_EQ(dynamic_cast<RoundRobinExecutor*>(harness.executor) != nullptr,
              harness.experiment->run.executor == ExecutorKind::kRoundRobin);
    EXPECT_EQ(dynamic_cast<ShardedExecutor*>(harness.executor) != nullptr,
              harness.experiment->run.shards > 1);
    const std::vector<ScheduledFrame> schedule = test::BuildSchedule(plan);
    ASSERT_GT(schedule.size(), 0u);

    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, schedule.size());
    client.Close();
    ASSERT_TRUE(harness.Join().ok());

    EXPECT_EQ(harness.server->frames_ingested(), schedule.size());
    EXPECT_EQ(harness.server->decode_errors(), 0u);
    EXPECT_EQ(harness.server->order_validator().violations(), 0u);
    test::ExpectSameTuples(sim_sink->collected(),
                           harness.sink()->collected());
  }
}

TEST(NetLoopbackTest, LeaseEtsFiresWhenFeederDies) {
  // Two external streams into a union: the union idle-waits on whichever
  // stream is silent. The feeder sends data on A only, then disconnects —
  // the wall clock keeps moving, so lease expiry must produce fallback ETS
  // that let the union drain A's tuples to the sink. The harness builds its
  // ExecConfig with ExecConfigForRun, as streamets_serve does, so this
  // also checks that a served plan's `lease=` arms lease expiry.
  constexpr char kPlan[] = R"(
stream A ts=external skew=50ms
stream B ts=external skew=50ms
union U in=A,B
sink OUT in=U
run horizon=1s lease=100ms ets=on-demand
)";
  ServerHarness harness(kPlan, IngestClock::Mode::kWallClock);
  harness.Serve();

  FeedClientOptions copts;
  copts.port = harness.server->port();
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  for (int i = 1; i <= 5; ++i) {
    WireFrame frame;
    frame.stream_id = 0;  // stream A (declaration order)
    frame.timestamp = i * kMillisecond;
    frame.values.emplace_back(int64_t{i});
    ASSERT_TRUE(client.SendFrame(frame).ok());
  }
  client.Close();  // the producer dies; the server keeps serving

  ASSERT_TRUE(harness.Join().ok());
  EXPECT_GT(harness.executor->stats().lease_expired_ets, 0u);
  // The query drained: every tuple made it through the idle-waiting union.
  EXPECT_EQ(harness.sink()->data_delivered(), 5u);
  bool any_degraded = false;
  for (Source* source : harness.graph->sources()) {
    any_degraded = any_degraded || source->degraded();
  }
  EXPECT_TRUE(any_degraded);
  // The fallback emissions are visible in the metrics snapshot, next to
  // the server's own net.* counters — what an operator would actually see.
  MetricsRegistry registry;
  harness.executor->stats().PublishTo(&registry, "exec");
  harness.server->PublishTo(&registry);
  EXPECT_GT(registry.GetCounter("exec.frontier.lease_expired_ets")->value(),
            0u);
  EXPECT_EQ(registry.GetCounter("net.frames")->value(), 5u);
}

TEST(NetLoopbackTest, SkewViolationsAreQuarantinedNotFatal) {
  constexpr char kPlan[] = R"(
stream E ts=external skew=10ms
sink OUT in=E
run horizon=1s violations=quarantine
)";
  ServerHarness harness(kPlan);
  harness.Serve();

  FeedClientOptions copts;
  copts.port = harness.server->port();
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  // Three honest frames (skew 1ms, inside the declared 10ms bound)...
  for (int i = 1; i <= 3; ++i) {
    WireFrame frame;
    frame.stream_id = 0;
    frame.arrival_hint = i * 10 * kMillisecond;
    frame.timestamp = *frame.arrival_hint - kMillisecond;
    frame.values.emplace_back(int64_t{i});
    ASSERT_TRUE(client.SendFrame(frame).ok());
  }
  // ...then three breaching the contract by 40ms. A crashing engine here
  // would be a remote-triggered abort; instead the ViolationPolicy decides.
  for (int i = 4; i <= 6; ++i) {
    WireFrame frame;
    frame.stream_id = 0;
    frame.arrival_hint = i * 10 * kMillisecond;
    frame.timestamp = *frame.arrival_hint - 50 * kMillisecond;
    frame.values.emplace_back(int64_t{i});
    ASSERT_TRUE(client.SendFrame(frame).ok());
  }
  client.Close();
  ASSERT_TRUE(harness.Join().ok());

  std::vector<ConnectionReport> reports =
      harness.server->connection_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].frames, 6u);
  EXPECT_EQ(reports[0].skew_violations, 3u);
  EXPECT_GE(reports[0].max_skew, 50 * kMillisecond);
  EXPECT_EQ(harness.server->order_validator().quarantined(), 3u);
  EXPECT_EQ(harness.sink()->data_delivered(), 3u);
}

TEST(NetLoopbackTest, GarbageBytesCloseOneConnectionServerSurvives) {
  constexpr char kPlan[] = R"(
stream I ts=internal
sink OUT in=I
run horizon=1s
)";
  ServerHarness harness(kPlan);
  harness.Serve();

  FeedClientOptions copts;
  copts.port = harness.server->port();
  copts.connections = 2;
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());

  // Connection 1: a hostile length prefix claiming a 16 MiB frame, then
  // garbage. The server must reject it from the prefix alone.
  std::string garbage("\xff\xff\xff\x00heyheyhey", 13);
  ASSERT_TRUE(client.SendBytes(garbage, /*index=*/1).ok());

  // Connection 0: honest traffic, which must be unaffected.
  for (int i = 0; i < 3; ++i) {
    WireFrame frame;
    frame.stream_id = 0;
    frame.arrival_hint = (i + 1) * kMillisecond;
    frame.values.emplace_back(int64_t{i});
    ASSERT_TRUE(client.SendFrame(frame, /*index=*/0).ok());
  }
  client.Close();
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_GE(harness.server->decode_errors(), 1u);
  EXPECT_EQ(harness.server->frames_ingested(), 3u);
  EXPECT_EQ(harness.sink()->data_delivered(), 3u);
  uint64_t closed_with_errors = 0;
  for (const ConnectionReport& report :
       harness.server->connection_reports()) {
    if (report.decode_errors > 0) {
      ++closed_with_errors;
      EXPECT_FALSE(report.open);
    }
  }
  EXPECT_EQ(closed_with_errors, 1u);
}

TEST(NetLoopbackTest, IdlePeerIsClosedAndCountedHonestTrafficSurvives) {
  constexpr char kPlan[] = R"(
stream I ts=internal
sink OUT in=I
run horizon=1s
)";
  // 100ms of virtual silence closes a peer. One connection never says
  // anything — not even HELLO — while the other feeds honestly; only the
  // mute one may be reaped, and its demise must be visible in net.*.
  ServerHarness harness(kPlan, IngestClock::Mode::kFrameDriven,
                        /*idle_timeout=*/100 * kMillisecond);
  harness.Serve();

  // The mute peer: a raw socket that connects and then holds its tongue.
  // It must stay open on the client side, or a plain disconnect (not the
  // idle sweep) would be what removes it.
  int mute = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(mute, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(harness.server->port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(mute, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  FeedClientOptions copts;
  copts.port = harness.server->port();
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  // The honest feed drives the frame-driven clock past the timeout; its
  // own activity stamps keep it alive for the whole run.
  for (int i = 0; i < 10; ++i) {
    WireFrame frame;
    frame.stream_id = 0;
    frame.arrival_hint = (i + 1) * 90 * kMillisecond;
    frame.values.emplace_back(int64_t{i});
    ASSERT_TRUE(client.SendFrame(frame).ok());
  }
  client.Close();
  ASSERT_TRUE(harness.Join().ok());
  ::close(mute);

  EXPECT_EQ(harness.server->idle_closes(), 1u);
  EXPECT_EQ(harness.sink()->data_delivered(), 10u);
  uint64_t reaped = 0;
  for (const ConnectionReport& report :
       harness.server->connection_reports()) {
    if (report.idle_closed) {
      ++reaped;
      EXPECT_FALSE(report.open);
      EXPECT_FALSE(report.helloed);
      EXPECT_EQ(report.frames, 0u);
    } else {
      EXPECT_EQ(report.frames, 10u);
    }
  }
  EXPECT_EQ(reaped, 1u);
  MetricsRegistry registry;
  harness.server->PublishTo(&registry);
  EXPECT_EQ(registry.GetCounter("net.idle_closes")->value(), 1u);
}

TEST(NetLoopbackTest, OverloadShedsInsteadOfGrowingWithoutBound) {
  constexpr char kPlan[] = R"(
stream I ts=internal
sink OUT in=I
run horizon=1s buffer_cap=4 overload=shed
)";
  ServerHarness harness(kPlan);
  harness.Serve();

  FeedClientOptions copts;
  copts.port = harness.server->port();
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  // A burst with no arrival hints is all "due now": the delivery loop
  // pushes it into a 4-slot arc faster than the executor drains, so the
  // shed policy must discard the overflow instead of growing the buffer.
  constexpr int kBurst = 500;
  for (int i = 0; i < kBurst; ++i) {
    WireFrame frame;
    frame.stream_id = 0;
    frame.values.emplace_back(int64_t{i});
    ASSERT_TRUE(client.SendFrame(frame).ok());
  }
  client.Close();
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_EQ(harness.server->frames_ingested(),
            static_cast<uint64_t>(kBurst));
  const uint64_t shed = harness.graph->TotalShedTuples();
  EXPECT_GT(shed, 0u);
  // Conservation: every frame either reached the sink or was shed.
  EXPECT_EQ(harness.sink()->data_delivered() + shed,
            static_cast<uint64_t>(kBurst));
  std::vector<ConnectionReport> reports =
      harness.server->connection_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].shed_tuples, shed);
}

}  // namespace
}  // namespace dsms

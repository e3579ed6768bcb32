// End-to-end crash-recovery tests over a real loopback socket: a
// recovery-enabled IngestServer is killed mid-run (the in-process analogue
// of SIGKILL — the engine stack is torn down with no flush, no final
// checkpoint), restarted from its WAL + checkpoint directory, and fed by a
// resuming client. The headline assertion is exactly-once output: the
// recovered durable sink file is byte-identical to an uninterrupted run's.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "frontier/frontier_tracker.h"
#include "graph/query_graph.h"
#include "loopback_harness.h"
#include "net/feed_client.h"
#include "net/feed_schedule.h"
#include "net/ingest_server.h"
#include "net/wire_format.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/experiment_spec.h"
#include "storage/block_file.h"
#include "storage/state_store.h"

namespace dsms {
namespace {

using test::BuildSchedule;
using test::ReadFile;

std::string FreshDir(const std::string& tag) {
  return test::FreshDir("recovery_loopback_" + tag);
}

// The served engine (tests/loopback_harness.h) with the recovery its plan's
// `wal`/`checkpoint` statements configure, `dir` standing in for their
// @WAL@ directory (as streamets_serve --wal-dir does), and an optional
// scheduled crash.
struct RecoveryHarness : test::LoopbackHarness {
  RecoveryHarness(const std::string& text, const std::string& dir,
                  Timestamp crash_at = 0)
      : LoopbackHarness(
            text,
            [&](IngestServerOptions* options) { options->crash_at = crash_at; },
            dir) {
    DSMS_CHECK(recovery != nullptr);
  }
};

// Mixed internal/external plan with a heartbeat and a lossy filter: enough
// structure that operator state, punctuation frontiers, and RNG positions
// all have to survive the crash for the outputs to line up.
constexpr char kPlan[] = R"(
stream A ts=internal
stream B ts=external skew=40ms
filter F in=A selectivity=0.8 seed=5
union U in=F,B
sink OUT in=U
feed A process=poisson rate=50 seed=21
feed B process=poisson rate=30 seed=22
heartbeat B period=250ms
run horizon=2s ets=on-demand
wal dir=@WAL@ sync=every_frame
checkpoint horizon=250ms
)";

TEST(RecoveryLoopbackTest, KillMidRunRecoverResumeOutputIsByteIdentical) {
  const std::vector<ScheduledFrame> schedule = BuildSchedule(kPlan);
  ASSERT_GT(schedule.size(), 0u);

  // Reference: the same plan served to completion with no interruption.
  const std::string ref_dir = FreshDir("reference");
  {
    RecoveryHarness harness(kPlan, ref_dir);
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
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
  }
  const std::string reference = ReadFile(ref_dir + "/sink-OUT.out");
  ASSERT_FALSE(reference.empty());

  // Crash run: identical input, but the server aborts at t=1s — mid-stream,
  // with frames still undelivered. Tearing the stack down without any flush
  // is the in-process stand-in for SIGKILL.
  const std::string dir = FreshDir("crash");
  uint64_t durable_at_crash = 0;
  {
    RecoveryHarness harness(kPlan, dir, /*crash_at=*/1 * kSecond);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    // The blast fits in the socket buffer, so Send returns before the
    // crash; the server dies while draining it.
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    client.Close();
    Status run = harness.Join();
    ASSERT_EQ(run.code(), StatusCode::kAborted) << run.ToString();
    for (const auto& [stream, seq] : harness.recovery->durable_seqs()) {
      durable_at_crash += seq;
    }
    // The crash landed mid-stream: some frames are durable, some are not.
    ASSERT_GT(durable_at_crash, 0u);
    ASSERT_LT(durable_at_crash, schedule.size());
  }

  // Recovery run: load the checkpoint, replay the WAL tail, and let a
  // resuming client re-send everything the server does not hold durably.
  {
    RecoveryHarness harness(kPlan, dir);
    ASSERT_TRUE(harness.recovery->recovered());
    // Read the restored clock before Serve(): once the run thread exists,
    // the executor advances the clock concurrently.
    EXPECT_GT(harness.engine->clock().now(), 0);
    harness.Serve();

    FeedClientOptions copts;
    copts.port = harness.server->port();
    copts.resume = true;
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Handshake().ok());
    uint64_t acked = 0;
    for (const auto& [stream, seq] : client.acked()) acked += seq;
    EXPECT_EQ(acked, durable_at_crash);

    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    // Exactly-once on the wire: the client re-sends only the frames the
    // server lost.
    EXPECT_EQ(*sent, schedule.size() - durable_at_crash);
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    EXPECT_EQ(harness.server->resume_rejects(), 0u);
  }

  // Exactly-once at the output: crash + recover + resume produced the same
  // bytes as the uninterrupted run.
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

// The same plan with batch mode enabled. Batch size 7 is deliberately odd:
// runs end mid-burst and at punctuation splits, so the crash lands between
// runs whose boundaries don't line up with anything.
constexpr char kBatchPlan[] = R"(
stream A ts=internal
stream B ts=external skew=40ms
filter F in=A selectivity=0.8 seed=5
union U in=F,B
sink OUT in=U
feed A process=poisson rate=50 seed=21
feed B process=poisson rate=30 seed=22
heartbeat B period=250ms
batch size=7
run horizon=2s ets=on-demand
wal dir=@WAL@ sync=every_frame
checkpoint horizon=250ms
)";

// The batch-mode variant of the kill-and-recover contract. A row run lives
// strictly inside one executor step — every row it takes is processed
// before the engine can reach the idle points where checkpoints are cut —
// so there is never an in-flight run to persist, and recovery with
// batching on must be byte-identical exactly like the scalar path. The
// reference run is batched too (batch vs scalar output equivalence is
// tests/batch_exec_test.cc's contract, at zero virtual cost).
TEST(RecoveryLoopbackTest, KillMidRunWithBatchingRecoversByteIdentical) {
  const std::vector<ScheduledFrame> schedule = BuildSchedule(kBatchPlan);
  ASSERT_GT(schedule.size(), 0u);

  // Reference: the batched plan served to completion with no interruption.
  const std::string ref_dir = FreshDir("batch_reference");
  {
    RecoveryHarness harness(kBatchPlan, ref_dir);
    ASSERT_EQ(harness.experiment->run.batch, 7u);
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
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    // The run must actually have exercised the batch path, or the test
    // degenerates into the scalar one.
    EXPECT_GT(harness.executor->stats().batches, 0u);
  }
  const std::string reference = ReadFile(ref_dir + "/sink-OUT.out");
  ASSERT_FALSE(reference.empty());

  // Crash run: aborts at t=1s, mid-stream and between batch drains.
  const std::string dir = FreshDir("batch_crash");
  uint64_t durable_at_crash = 0;
  {
    RecoveryHarness harness(kBatchPlan, dir, /*crash_at=*/1 * kSecond);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    client.Close();
    Status run = harness.Join();
    ASSERT_EQ(run.code(), StatusCode::kAborted) << run.ToString();
    for (const auto& [stream, seq] : harness.recovery->durable_seqs()) {
      durable_at_crash += seq;
    }
    ASSERT_GT(durable_at_crash, 0u);
    ASSERT_LT(durable_at_crash, schedule.size());
  }

  // Recovery run: checkpoint + WAL tail + resuming client, batching still
  // on. The restored batch counters keep accumulating.
  {
    RecoveryHarness harness(kBatchPlan, dir);
    ASSERT_TRUE(harness.recovery->recovered());
    harness.Serve();

    FeedClientOptions copts;
    copts.port = harness.server->port();
    copts.resume = true;
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Handshake().ok());
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, schedule.size() - durable_at_crash);
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    EXPECT_EQ(harness.server->resume_rejects(), 0u);
    EXPECT_GT(harness.executor->stats().batches, 0u);
  }

  // Crash + recover + resume with batching produced the same bytes as the
  // uninterrupted batched run.
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

// The quarantine plan: same shape, but with the frontier lease armed and
// arc violations quarantined. The schedule is mutated below so stream B
// misbehaves hard enough to walk into frontier quarantine before the crash.
constexpr char kQuarantinePlan[] = R"(
stream A ts=internal
stream B ts=external skew=40ms
filter F in=A selectivity=0.8 seed=5
union U in=F,B
sink OUT in=U
feed A process=poisson rate=50 seed=21
feed B process=poisson rate=30 seed=22
heartbeat B period=250ms
run horizon=2s ets=on-demand lease=1s violations=quarantine
wal dir=@WAL@ sync=every_frame
checkpoint horizon=250ms
)";

int32_t StreamId(const std::string& text, const std::string& name) {
  Result<Experiment> experiment =
      ParseExperiment(text, /*require_feeds=*/false);
  DSMS_CHECK(experiment.ok());
  for (Source* source : experiment->plan.graph->sources()) {
    if (source->name() == name) return source->stream_id();
  }
  return -1;
}

/// A crash while a source sits in frontier quarantine must come back up
/// still quarantined: the tracker's lifecycle state rides the executor blob
/// in the checkpoint, so a restart can neither amnesty a liar nor re-punish
/// it from scratch — and the recovered output is still byte-identical.
TEST(RecoveryLoopbackTest, KillWhileQuarantinedRestoresQuarantineState) {
  std::vector<ScheduledFrame> schedule = BuildSchedule(kQuarantinePlan);
  ASSERT_GT(schedule.size(), 0u);

  // Misbehave on purpose: regress a run of stream B's data frames by 200ms.
  // Each one lands below both the stream's promise and its skew contract —
  // a frontier violation — and four strikes mean quarantine well before the
  // 1s crash point. Both the reference and the crash run see this exact
  // stream, so byte-identity still has meaning.
  const int32_t b_id = StreamId(kQuarantinePlan, "B");
  ASSERT_GE(b_id, 0);
  size_t regressed = 0;
  for (ScheduledFrame& sf : schedule) {
    if (sf.frame.stream_id != b_id) continue;
    if (sf.frame.type != WireFrame::Type::kData) continue;
    if (sf.time < 300 * kMillisecond || sf.time >= 700 * kMillisecond)
      continue;
    ASSERT_TRUE(sf.frame.timestamp.has_value());
    *sf.frame.timestamp -= 200 * kMillisecond;
    ++regressed;
  }
  ASSERT_GE(regressed, 4u);  // enough strikes to quarantine

  // Reference: the misbehaving schedule served to completion uninterrupted.
  const std::string ref_dir = FreshDir("quarantine_reference");
  {
    RecoveryHarness harness(kQuarantinePlan, ref_dir);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Send(schedule).ok());
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    // Sanity: the mutation actually walked B into quarantine (the 2s
    // horizon is far inside readmit_after, so it never heals mid-run).
    const FrontierTracker* frontier = harness.executor->frontier();
    EXPECT_GE(frontier->CountInState(SourceHealth::kQuarantined), 1u);
    ASSERT_NE(frontier->participant(b_id), nullptr);
    EXPECT_EQ(frontier->participant(b_id)->health,
              SourceHealth::kQuarantined);
  }
  const std::string reference = ReadFile(ref_dir + "/sink-OUT.out");
  ASSERT_FALSE(reference.empty());

  // Crash run: the server aborts at t=1s — after the quarantine, before
  // the horizon.
  const std::string dir = FreshDir("quarantine_crash");
  uint64_t durable_at_crash = 0;
  uint64_t violations_at_crash = 0;
  {
    RecoveryHarness harness(kQuarantinePlan, dir, /*crash_at=*/1 * kSecond);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Send(schedule).ok());
    client.Close();
    Status run = harness.Join();
    ASSERT_EQ(run.code(), StatusCode::kAborted) << run.ToString();
    // The crash landed inside the quarantine window.
    EXPECT_EQ(harness.executor->frontier()->participant(b_id)->health,
              SourceHealth::kQuarantined);
    violations_at_crash = harness.executor->frontier()->violations();
    EXPECT_GT(violations_at_crash, 0u);
    for (const auto& [stream, seq] : harness.recovery->durable_seqs()) {
      durable_at_crash += seq;
    }
    ASSERT_GT(durable_at_crash, 0u);
    ASSERT_LT(durable_at_crash, schedule.size());
  }

  // Recovery run: the restored tracker already holds the quarantine —
  // checkpoint state plus the WAL tail replay, before any new frame.
  {
    RecoveryHarness harness(kQuarantinePlan, dir);
    ASSERT_TRUE(harness.recovery->recovered());
    // Start (with its WAL replay) inline instead of Serve(), so the
    // tracker can be inspected single-threaded: checkpoint state plus the
    // replayed tail, before the run thread exists and before any new frame.
    ASSERT_TRUE(harness.engine->Start().ok());
    const FrontierTracker* frontier = harness.executor->frontier();
    ASSERT_NE(frontier->participant(b_id), nullptr);
    EXPECT_EQ(frontier->participant(b_id)->health,
              SourceHealth::kQuarantined);
    EXPECT_GT(frontier->violations(), 0u);
    harness.ServeStarted();

    FeedClientOptions copts;
    copts.port = harness.server->port();
    copts.resume = true;
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Handshake().ok());
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, schedule.size() - durable_at_crash);
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    EXPECT_EQ(harness.server->resume_rejects(), 0u);
    // Still quarantined at end of run: restart granted no amnesty.
    EXPECT_EQ(frontier->participant(b_id)->health,
              SourceHealth::kQuarantined);
  }

  // Byte-identity holds across the quarantine + crash + recovery episode.
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

TEST(RecoveryLoopbackTest, HandshakeOnFreshServerAcksNothing) {
  const std::vector<ScheduledFrame> schedule = BuildSchedule(kPlan);
  const std::string dir = FreshDir("fresh");
  RecoveryHarness harness(kPlan, dir);
  EXPECT_FALSE(harness.recovery->recovered());
  harness.Serve();

  FeedClientOptions copts;
  copts.port = harness.server->port();
  copts.resume = true;
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Handshake().ok());
  EXPECT_TRUE(client.acked().empty());
  Result<uint64_t> sent = client.Send(schedule);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, schedule.size());
  client.Close();
  ASSERT_TRUE(harness.Join().ok());
  EXPECT_EQ(harness.server->frames_ingested(), schedule.size());
  EXPECT_EQ(harness.server->resume_rejects(), 0u);
}

TEST(RecoveryLoopbackTest, StaleResumeTokenIsRejectedAndCounted) {
  const std::string dir = FreshDir("stale");
  RecoveryHarness harness(kPlan, dir);
  harness.Serve();

  // A feeder resuming against the wrong (here: empty) durable state — e.g.
  // the recovery directory was wiped between its HELLO and now. It claims
  // 5 durable frames on stream 0; the server holds none.
  FeedClientOptions copts;
  copts.port = harness.server->port();
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  WireFrame stale;
  stale.type = WireFrame::Type::kResume;
  stale.values.emplace_back(int64_t{0});
  stale.values.emplace_back(int64_t{5});
  ASSERT_TRUE(client.SendFrame(stale).ok());
  client.Close();
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_EQ(harness.server->resume_rejects(), 1u);
  EXPECT_EQ(harness.server->frames_ingested(), 0u);
  std::vector<ConnectionReport> reports =
      harness.server->connection_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].open);
  EXPECT_GE(reports[0].protocol_errors, 1u);
}

TEST(RecoveryLoopbackTest, GracefulRestartReproducesTheSameOutput) {
  const std::vector<ScheduledFrame> schedule = BuildSchedule(kPlan);
  const std::string dir = FreshDir("graceful");
  std::string first_output;
  {
    RecoveryHarness harness(kPlan, dir);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Send(schedule).ok());
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    // The streamets_serve shutdown epilogue: final checkpoint, then flush.
    ASSERT_TRUE(harness.server->CheckpointNow().ok());
    ASSERT_TRUE(harness.recovery->FlushWal().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    EXPECT_GT(harness.recovery->checkpoints_written(), 0u);
    first_output = ReadFile(dir + "/sink-OUT.out");
    ASSERT_FALSE(first_output.empty());
  }
  // Restart with no new input: the final checkpoint covers the whole run,
  // so the restarted server replays nothing, re-emits nothing, and the
  // durable output is untouched. A recovered server waits for peers to
  // reconnect, so a connect-and-hang-up is what releases the run.
  {
    RecoveryHarness harness(kPlan, dir);
    ASSERT_TRUE(harness.recovery->recovered());
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    EXPECT_EQ(harness.recovery->replayed_frames(), 0u);
  }
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), first_output);
}

// An equi-join whose window state blows through a 2 KiB state-store budget,
// so most blocks live as spilled block files while the server runs. The
// @SPILL@ token is replaced with a per-test scratch directory — the crash
// run and the recovery run must share it, because recovery claims the
// crash incarnation's block files by reference instead of re-writing them.
constexpr char kSpillPlanTemplate[] = R"(
stream L ts=internal
stream R ts=internal
join J in=L,R window=1s left_field=0 right_field=0
sink OUT in=J
feed L process=poisson rate=80 seed=31 payload=randint lo=0 hi=8
feed R process=poisson rate=60 seed=32 payload=randint lo=0 hi=8
run horizon=2s ets=on-demand
state mem_budget=2k spill_dir=@SPILL@ granularity=250ms
wal dir=@WAL@ sync=every_frame
checkpoint horizon=250ms
)";

std::string SpillPlan(const std::string& spill_dir) {
  std::string plan = kSpillPlanTemplate;
  const std::string token = "@SPILL@";
  size_t at = plan.find(token);
  DSMS_CHECK(at != std::string::npos);
  plan.replace(at, token.size(), spill_dir);
  return plan;
}

/// Kill-9 with larger-than-memory join state: at the crash, most of the
/// join windows live in spilled block files, the durable checkpoint holds
/// only descriptors referencing them (manifest + refcounts), and the WAL
/// holds the post-checkpoint tail. Recovery claims the referenced files,
/// GCs the orphans from after the checkpoint, replays the tail, and the
/// resumed run's durable sink output is byte-identical to an uninterrupted
/// spilling run's.
TEST(RecoveryLoopbackTest, KillMidRunWithSpilledStateRecoversByteIdentical) {
  // Reference: the spilling join served to completion, no interruption.
  const std::string ref_spill = FreshDir("spill_reference_blocks");
  const std::string ref_plan = SpillPlan(ref_spill);
  const std::vector<ScheduledFrame> schedule = BuildSchedule(ref_plan);
  ASSERT_GT(schedule.size(), 0u);
  const std::string ref_dir = FreshDir("spill_reference");
  {
    RecoveryHarness harness(ref_plan, ref_dir);
    ASSERT_TRUE(harness.experiment->storage.enabled);
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
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    // The run must actually have exceeded the budget, or this degenerates
    // into the in-memory recovery test above.
    EXPECT_GT(harness.graph->state_store()->stats().spills, 0u);
  }
  const std::string reference = ReadFile(ref_dir + "/sink-OUT.out");
  ASSERT_FALSE(reference.empty());

  // Crash run: aborts at t=1s with a full window of state on both join
  // sides, most of it in block files under the shared spill directory.
  const std::string spill = FreshDir("spill_crash_blocks");
  const std::string plan = SpillPlan(spill);
  const std::string dir = FreshDir("spill_crash");
  uint64_t durable_at_crash = 0;
  {
    RecoveryHarness harness(plan, dir, /*crash_at=*/1 * kSecond);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    client.Close();
    Status run = harness.Join();
    ASSERT_EQ(run.code(), StatusCode::kAborted) << run.ToString();
    // The kill landed with spilled state live on disk — the scenario this
    // test exists for.
    EXPECT_GT(harness.graph->state_store()->stats().spills, 0u);
    std::vector<std::pair<uint64_t, std::string>> blocks;
    ASSERT_TRUE(ListBlockFiles(spill, &blocks).ok());
    ASSERT_GT(blocks.size(), 0u);
    for (const auto& [stream, seq] : harness.recovery->durable_seqs()) {
      durable_at_crash += seq;
    }
    ASSERT_GT(durable_at_crash, 0u);
    ASSERT_LT(durable_at_crash, schedule.size());
  }

  // Recovery run: the store is configured first, the restored manifest
  // claims the crash incarnation's block files, orphans are GC'd, the WAL
  // tail replays, and the resuming client re-sends only the lost frames.
  {
    RecoveryHarness harness(plan, dir);
    ASSERT_TRUE(harness.recovery->recovered());
    harness.Serve();

    FeedClientOptions copts;
    copts.port = harness.server->port();
    copts.resume = true;
    FeedClient client(copts);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Handshake().ok());
    Result<uint64_t> sent = client.Send(schedule);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, schedule.size() - durable_at_crash);
    client.Close();
    ASSERT_TRUE(harness.Join().ok());
    ASSERT_TRUE(harness.recovery->FlushSinks().ok());
    EXPECT_EQ(harness.server->resume_rejects(), 0u);
  }

  // Crash + recover + resume with spilled state produced the same bytes as
  // the uninterrupted spilling run.
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

}  // namespace
}  // namespace dsms

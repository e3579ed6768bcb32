#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "core/value.h"
#include "operators/multiway_join.h"
#include "operators/operator.h"
#include "recovery/state_codec.h"
#include "storage/state_store.h"

namespace dsms {
namespace {

Tuple DataTuple(Timestamp ts, int64_t key, int64_t payload) {
  return Tuple::MakeData(ts, {Value(key), Value(payload)});
}

struct MJoinRig {
  MJoinRig(int n, Duration window, MultiWayJoin::Predicate predicate,
           bool ordered = true)
      : op("mj", std::vector<Duration>(static_cast<size_t>(n), window),
           std::move(predicate), ordered) {
    for (int i = 0; i < n; ++i) {
      ins.push_back(std::make_unique<StreamBuffer>("in"));
      op.AddInput(ins.back().get());
    }
    op.AddOutput(&out);
  }

  std::vector<Tuple> Drain(ManualExecContext& ctx) {
    for (int guard = 0; guard < 100000; ++guard) {
      if (!op.Step(ctx).more) break;
    }
    std::vector<Tuple> result;
    while (!out.empty()) result.push_back(out.Pop());
    return result;
  }

  void FlushAll(Timestamp bound) {
    for (auto& in : ins) in->Push(Tuple::MakePunctuation(bound));
  }

  std::vector<std::unique_ptr<StreamBuffer>> ins;
  StreamBuffer out{"out"};
  MultiWayJoin op;
};

TEST(MultiWayJoinTest, ThreeWayMatch) {
  MJoinRig rig(3, /*window=*/100, MultiWayJoin::EquiJoin(0));
  ManualExecContext ctx;
  rig.ins[0]->Push(DataTuple(10, 7, 100));
  rig.ins[1]->Push(DataTuple(20, 7, 200));
  rig.ins[2]->Push(DataTuple(30, 7, 300));
  rig.FlushAll(1000);
  std::vector<Tuple> emitted = rig.Drain(ctx);
  std::vector<Tuple> data;
  for (Tuple& t : emitted) {
    if (t.is_data()) data.push_back(t);
  }
  ASSERT_EQ(data.size(), 1u);
  // Payload is the concatenation in input order.
  ASSERT_EQ(data[0].num_values(), 6);
  EXPECT_EQ(data[0].value(1).int64_value(), 100);
  EXPECT_EQ(data[0].value(3).int64_value(), 200);
  EXPECT_EQ(data[0].value(5).int64_value(), 300);
  // Result is stamped by the completing (newest) tuple.
  EXPECT_EQ(data[0].timestamp(), 30);
  EXPECT_EQ(rig.op.matches_emitted(), 1u);
}

TEST(MultiWayJoinTest, KeyMismatchNoMatch) {
  MJoinRig rig(3, 100, MultiWayJoin::EquiJoin(0));
  ManualExecContext ctx;
  rig.ins[0]->Push(DataTuple(10, 7, 0));
  rig.ins[1]->Push(DataTuple(20, 7, 0));
  rig.ins[2]->Push(DataTuple(30, 8, 0));  // different key
  rig.FlushAll(1000);
  for (const Tuple& t : rig.Drain(ctx)) EXPECT_TRUE(t.is_punctuation());
}

TEST(MultiWayJoinTest, WindowExcludesOldTuples) {
  MJoinRig rig(3, /*window=*/50, MultiWayJoin::EquiJoin(0));
  ManualExecContext ctx;
  rig.ins[0]->Push(DataTuple(10, 7, 0));
  rig.ins[1]->Push(DataTuple(20, 7, 0));
  rig.ins[2]->Push(DataTuple(100, 7, 0));  // 90 away from input 0's tuple
  rig.FlushAll(1000);
  for (const Tuple& t : rig.Drain(ctx)) EXPECT_TRUE(t.is_punctuation());
}

TEST(MultiWayJoinTest, CrossProductCounts) {
  // 2 x 3 x 1 tuples, all within windows, no predicate: 6 results when the
  // single input-2 tuple arrives... plus combinations completed earlier.
  MJoinRig rig(3, 1000, /*predicate=*/nullptr);
  ManualExecContext ctx;
  rig.ins[0]->Push(DataTuple(1, 0, 0));
  rig.ins[0]->Push(DataTuple(2, 0, 0));
  rig.ins[1]->Push(DataTuple(3, 0, 0));
  rig.ins[1]->Push(DataTuple(4, 0, 0));
  rig.ins[1]->Push(DataTuple(5, 0, 0));
  rig.ins[2]->Push(DataTuple(6, 0, 0));
  rig.FlushAll(10000);
  int matches = 0;
  for (const Tuple& t : rig.Drain(ctx)) {
    if (t.is_data()) ++matches;
  }
  // Every complete {in0, in1, in2} combination is emitted exactly once,
  // when its last member is processed: 2 * 3 * 1 = 6.
  EXPECT_EQ(matches, 6);
}

TEST(MultiWayJoinTest, EachCombinationEmittedOnce) {
  MJoinRig rig(3, 1000, MultiWayJoin::EquiJoin(0));
  ManualExecContext ctx;
  // Interleave arrivals; drain between pushes to force incremental probing.
  rig.ins[0]->Push(DataTuple(1, 1, 10));
  rig.Drain(ctx);
  rig.ins[1]->Push(DataTuple(2, 1, 20));
  rig.Drain(ctx);
  rig.ins[2]->Push(DataTuple(3, 1, 30));
  rig.Drain(ctx);
  rig.ins[0]->Push(DataTuple(4, 1, 11));
  rig.FlushAll(10000);
  int matches = 0;
  for (const Tuple& t : rig.Drain(ctx)) {
    if (t.is_data()) ++matches;
  }
  // {10,20,30} completed by the ts-3 tuple; {11,20,30} by the ts-4 tuple.
  EXPECT_EQ(matches, 2);
}

TEST(MultiWayJoinTest, IdleWaitsOnLaggingInput) {
  MJoinRig rig(3, 100, nullptr);
  ManualExecContext ctx;
  rig.ins[0]->Push(DataTuple(10, 0, 0));
  rig.ins[1]->Push(DataTuple(20, 0, 0));
  StepResult r = rig.op.Step(ctx);
  EXPECT_FALSE(r.more);
  EXPECT_TRUE(r.idle_waiting);
  EXPECT_EQ(r.blocked_input, 2);
}

TEST(MultiWayJoinTest, PunctuationPrunesWindows) {
  MJoinRig rig(3, /*window=*/50, nullptr);
  ManualExecContext ctx;
  rig.ins[0]->Push(DataTuple(10, 0, 0));
  rig.FlushAll(20);
  rig.Drain(ctx);
  EXPECT_EQ(rig.op.window_size(0), 1u);  // cutoff 20-50 < 10
  rig.FlushAll(500);
  rig.Drain(ctx);
  EXPECT_EQ(rig.op.total_window_size(), 0u);  // cutoff 450 > 10
}

TEST(MultiWayJoinTest, ForwardsWatermark) {
  MJoinRig rig(3, 100, nullptr);
  ManualExecContext ctx;
  rig.FlushAll(77);
  std::vector<Tuple> emitted = rig.Drain(ctx);
  ASSERT_FALSE(emitted.empty());
  EXPECT_TRUE(emitted.back().is_punctuation());
  EXPECT_EQ(emitted.back().timestamp(), 77);
}

TEST(MultiWayJoinTest, TwoWayAgreesWithBinaryJoinSemantics) {
  // With n=2 the multiway join degenerates to the binary window join's
  // newest-probes-stored evaluation; compare against brute force.
  Pcg32 rng(77);
  const Duration window = 60;
  std::vector<Tuple> left;
  std::vector<Tuple> right;
  Timestamp lt = 0;
  Timestamp rt = 0;
  for (int i = 0; i < 40; ++i) {
    lt += rng.NextInt(1, 30);
    left.push_back(DataTuple(lt, rng.NextInt(0, 3), 1000 + i));
    rt += rng.NextInt(1, 30);
    right.push_back(DataTuple(rt, rng.NextInt(0, 3), 2000 + i));
  }
  MJoinRig rig(2, window, MultiWayJoin::EquiJoin(0));
  ManualExecContext ctx;
  for (const Tuple& t : left) rig.ins[0]->Push(t);
  for (const Tuple& t : right) rig.ins[1]->Push(t);
  rig.FlushAll(100000);
  std::vector<std::pair<int64_t, int64_t>> actual;
  for (const Tuple& t : rig.Drain(ctx)) {
    if (t.is_data()) {
      actual.emplace_back(t.value(1).int64_value(),
                          t.value(3).int64_value());
    }
  }
  std::vector<std::pair<int64_t, int64_t>> expected;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      Timestamp older = std::min(l.timestamp(), r.timestamp());
      Timestamp newer = std::max(l.timestamp(), r.timestamp());
      if (newer - older <= window && l.value(0) == r.value(0)) {
        expected.emplace_back(l.value(1).int64_value(),
                              r.value(1).int64_value());
      }
    }
  }
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(actual, expected);
}

TEST(MultiWayJoinUnorderedTest, StampsAndMatches) {
  MJoinRig rig(3, 1000, nullptr, /*ordered=*/false);
  ManualExecContext ctx(100);
  rig.ins[0]->Push(Tuple::MakeLatent({Value(int64_t{1})}));
  rig.op.Step(ctx);
  ctx.set_now(200);
  rig.ins[1]->Push(Tuple::MakeLatent({Value(int64_t{2})}));
  rig.op.Step(ctx);
  ctx.set_now(300);
  rig.ins[2]->Push(Tuple::MakeLatent({Value(int64_t{3})}));
  rig.op.Step(ctx);
  ASSERT_EQ(rig.out.size(), 1u);
  EXPECT_EQ(rig.out.Front().timestamp(), 300);
  EXPECT_EQ(rig.out.Front().num_values(), 3);
}

TEST(MultiWayJoinTest, OutputTimestampsNondecreasing) {
  MJoinRig rig(3, 200, nullptr);
  ManualExecContext ctx;
  Pcg32 rng(5);
  Timestamp ts[3] = {0, 0, 0};
  for (int i = 0; i < 60; ++i) {
    int input = static_cast<int>(rng.NextInt(0, 2));
    ts[input] += rng.NextInt(1, 50);
    rig.ins[static_cast<size_t>(input)]->Push(
        DataTuple(ts[input], 0, i));
  }
  rig.FlushAll(1000000);
  Timestamp previous = kMinTimestamp;
  for (const Tuple& t : rig.Drain(ctx)) {
    EXPECT_GE(t.timestamp(), previous);
    previous = t.timestamp();
  }
}

TEST(MultiWayJoinTest, ArityEnforced) {
  EXPECT_DEATH(MultiWayJoin("m", {100}, nullptr), "");
  MultiWayJoin join("m", {100, 100, 100}, nullptr);
  EXPECT_EQ(join.min_inputs(), 3);
  EXPECT_EQ(join.max_inputs(), 3);
  EXPECT_TRUE(join.is_iwp());
}

// --- state-store integration: indexed probes, adaptive order, save/load ---

TEST(MultiWayJoinTest, EquiFieldEnablesIndexedProbes) {
  MJoinRig rig(3, 1000, MultiWayJoin::EquiJoin(0));
  rig.op.set_equi_field(0);
  ManualExecContext ctx;
  for (int i = 0; i < 40; ++i) {
    rig.ins[0]->Push(DataTuple(10 * i, i % 3, i));
    rig.ins[1]->Push(DataTuple(10 * i + 2, i % 3, i));
    rig.ins[2]->Push(DataTuple(10 * i + 4, i % 3, i));
  }
  rig.FlushAll(2000);
  uint64_t matches = 0;
  for (const Tuple& t : rig.Drain(ctx)) {
    if (t.is_data()) ++matches;
  }
  EXPECT_GT(matches, 0u);
  uint64_t probes = 0;
  for (int i = 0; i < 3; ++i) probes += rig.op.state_table(i).index_probes();
  EXPECT_GT(probes, 0u);
}

TEST(MultiWayJoinTest, AdaptiveOrderMatchesStaticOutput) {
  // The probe order only changes which window is enumerated first; the set
  // of match combinations (and each result's payload) must be identical.
  auto run = [](bool adaptive) {
    MJoinRig rig(3, 2000, MultiWayJoin::EquiJoin(0));
    rig.op.set_equi_field(0);
    rig.op.set_adaptive(adaptive);
    ManualExecContext ctx;
    Pcg32 rng(11);
    Timestamp ts[3] = {0, 0, 0};
    std::vector<std::string> lines;
    // Skewed selectivities: input 2's keys rarely match.
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 10; ++i) {
        int input = static_cast<int>(rng.NextInt(0, 2));
        int64_t key = input == 2 ? rng.NextInt(0, 40) : rng.NextInt(0, 2);
        ts[input] += rng.NextInt(1, 20);
        rig.ins[static_cast<size_t>(input)]->Push(
            DataTuple(ts[input], key, round * 100 + i));
      }
      rig.FlushAll((round + 1) * 300);
      for (const Tuple& t : rig.Drain(ctx)) {
        if (t.is_data()) lines.push_back(t.ToString());
      }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(MultiWayJoinTest, AdaptiveReordersTowardSelectiveInputs) {
  MJoinRig rig(3, 5000, MultiWayJoin::EquiJoin(0));
  rig.op.set_equi_field(0);
  ManualExecContext ctx;
  // Input 0's window is fat and unselective (every probe returns many
  // rows); input 2's is empty. After enough punctuations the adaptive
  // order must probe input 0 last.
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 4; ++j) {
      rig.ins[0]->Push(DataTuple(40 * i + j, /*key=*/1, j));
    }
    rig.ins[1]->Push(DataTuple(40 * i + 10, /*key=*/1, i));
    rig.FlushAll(40 * i + 20);
    (void)rig.Drain(ctx);
  }
  const std::vector<int>& order = rig.op.probe_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 0);  // fattest window probed last
}

TEST(MultiWayJoinTest, SaveLoadRoundTripContinuesIdentically) {
  auto feed = [](MJoinRig& rig, ManualExecContext& ctx, int lo, int hi,
                 Timestamp flush) {
    for (int i = lo; i < hi; ++i) {
      rig.ins[0]->Push(DataTuple(10 * i, i % 3, i));
      rig.ins[1]->Push(DataTuple(10 * i + 2, i % 3, i));
      rig.ins[2]->Push(DataTuple(10 * i + 4, i % 3, i));
    }
    rig.FlushAll(flush);
    std::vector<std::string> lines;
    for (const Tuple& t : rig.Drain(ctx)) lines.push_back(t.ToString());
    return lines;
  };

  MJoinRig a(3, 500, MultiWayJoin::EquiJoin(0));
  a.op.set_equi_field(0);
  ManualExecContext actx;
  // Flush past every prefix tuple so the input buffers drain completely: a
  // checkpoint snapshots operator state; in-flight buffer contents are
  // restored separately (RestoreGraph).
  (void)feed(a, actx, 0, 30, 300);

  StateWriter w;
  a.op.SaveState(w);
  MJoinRig b(3, 500, MultiWayJoin::EquiJoin(0));
  b.op.set_equi_field(0);
  StateReader r(w.data());
  b.op.LoadState(r);
  EXPECT_EQ(b.op.total_window_size(), a.op.total_window_size());
  EXPECT_EQ(b.op.matches_emitted(), a.op.matches_emitted());
  EXPECT_EQ(b.op.probe_order(), a.op.probe_order());

  ManualExecContext bctx;
  EXPECT_EQ(feed(b, bctx, 30, 60, 100000), feed(a, actx, 30, 60, 100000));
}

TEST(MultiWayJoinTest, SpilledStateEmitsExactlyAsUnlimitedMemory) {
  // Nested keyed probes over spilled windows read one slice per block into
  // per-probe buffers while the outer probes still hold pointers into
  // theirs; the emitted stream must match the in-memory join in content
  // and order.
  auto run = [](StateStore* store) {
    MJoinRig rig(3, 3 * kSecond, MultiWayJoin::EquiJoin(0));
    rig.op.set_equi_field(0);
    if (store != nullptr) rig.op.BindStateStore(store);
    ManualExecContext ctx;
    std::vector<std::string> lines;
    for (int second = 0; second < 20; ++second) {
      for (int i = 0; i < 10; ++i) {
        const int n = second * 10 + i;
        const Timestamp ts = n * 100 * kMillisecond;
        rig.ins[0]->Push(DataTuple(ts, n % 4, n));
        rig.ins[1]->Push(DataTuple(ts + 1, (n / 2) % 4, n));
        rig.ins[2]->Push(DataTuple(ts + 2, (n / 3) % 4, n));
      }
      rig.FlushAll((second + 1) * kSecond);
      for (const Tuple& t : rig.Drain(ctx)) lines.push_back(t.ToString());
    }
    return lines;
  };

  StorageConfig config;
  config.mem_budget = 512;
  config.spill_dir = ::testing::TempDir() + "/dsms_mjoin_spill";
  config.granularity = kSecond;
  StateStore store(config);
  ASSERT_TRUE(store.Init().ok());
  store.GcOrphanFiles();  // clear files a previous run left behind

  const std::vector<std::string> in_memory = run(nullptr);
  const std::vector<std::string> spilled = run(&store);
  EXPECT_GT(in_memory.size(), 1000u);
  EXPECT_EQ(spilled, in_memory);
  const StorageStats stats = store.stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.slice_reads, 0u);
  EXPECT_EQ(stats.loads, 0u);  // every probe here is keyed
}

TEST(MultiWayJoinTest, RestoreWithMismatchedArityDies) {
  MJoinRig a(3, 500, nullptr);
  ManualExecContext ctx;
  a.ins[0]->Push(DataTuple(10, 1, 1));
  a.FlushAll(100);
  (void)a.Drain(ctx);
  StateWriter w;
  a.op.SaveState(w);

  // A 2-input join cannot absorb a 3-input checkpoint.
  MJoinRig b(2, 500, nullptr);
  StateReader r(w.data());
  EXPECT_DEATH(b.op.LoadState(r), "");
}

}  // namespace
}  // namespace dsms

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stream_buffer.h"
#include "core/tsm_register.h"
#include "core/tuple.h"
#include "core/value.h"

namespace dsms {
namespace {

TEST(TupleTest, DataTupleBasics) {
  Tuple t = Tuple::MakeData(1500, {Value(int64_t{1}), Value("x")});
  EXPECT_TRUE(t.is_data());
  EXPECT_FALSE(t.is_punctuation());
  EXPECT_TRUE(t.has_timestamp());
  EXPECT_EQ(t.timestamp(), 1500);
  EXPECT_EQ(t.num_values(), 2);
  EXPECT_EQ(t.value(0).int64_value(), 1);
  EXPECT_EQ(t.timestamp_kind(), TimestampKind::kInternal);
}

TEST(TupleTest, ExternalKind) {
  Tuple t = Tuple::MakeData(5, {}, TimestampKind::kExternal);
  EXPECT_EQ(t.timestamp_kind(), TimestampKind::kExternal);
}

TEST(TupleTest, LatentTupleHasNoTimestamp) {
  Tuple t = Tuple::MakeLatent({Value(int64_t{9})});
  EXPECT_TRUE(t.is_data());
  EXPECT_FALSE(t.has_timestamp());
  EXPECT_EQ(t.timestamp_kind(), TimestampKind::kLatent);
  EXPECT_DEATH(t.timestamp(), "");
}

TEST(TupleTest, LatentStampingOnTheFly) {
  Tuple t = Tuple::MakeLatent({});
  t.set_timestamp(777);
  EXPECT_TRUE(t.has_timestamp());
  EXPECT_EQ(t.timestamp(), 777);
}

TEST(TupleTest, PunctuationBasics) {
  Tuple p = Tuple::MakePunctuation(2000);
  EXPECT_TRUE(p.is_punctuation());
  EXPECT_EQ(p.timestamp(), 2000);
  EXPECT_EQ(p.num_values(), 0);
}

TEST(TupleTest, LineageFields) {
  Tuple t = Tuple::MakeData(10, {});
  t.set_arrival_time(9);
  t.set_source_id(3);
  t.set_sequence(17);
  EXPECT_EQ(t.arrival_time(), 9);
  EXPECT_EQ(t.source_id(), 3);
  EXPECT_EQ(t.sequence(), 17u);
}

TEST(TupleTest, ValueIndexOutOfRangeDies) {
  Tuple t = Tuple::MakeData(1, {Value(int64_t{1})});
  EXPECT_DEATH(t.value(1), "");
}

TEST(TupleTest, ToStringFormats) {
  EXPECT_EQ(Tuple::MakeData(15, {Value(int64_t{2})}).ToString(), "data@15[2]");
  EXPECT_EQ(Tuple::MakePunctuation(7).ToString(), "punct@7");
  EXPECT_EQ(Tuple::MakeLatent({}).ToString(), "data@latent[]");
}

TEST(TupleTest, MakeDataRejectsLatentKind) {
  EXPECT_DEATH(Tuple::MakeData(1, {}, TimestampKind::kLatent), "");
}

TEST(TimestampKindTest, Names) {
  EXPECT_STREQ(TimestampKindToString(TimestampKind::kExternal), "external");
  EXPECT_STREQ(TimestampKindToString(TimestampKind::kInternal), "internal");
  EXPECT_STREQ(TimestampKindToString(TimestampKind::kLatent), "latent");
}

TEST(StreamBufferTest, FifoOrder) {
  StreamBuffer buffer("b");
  buffer.Push(Tuple::MakeData(1, {}));
  buffer.Push(Tuple::MakeData(2, {}));
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.Front().timestamp(), 1);
  EXPECT_EQ(buffer.Pop().timestamp(), 1);
  EXPECT_EQ(buffer.Pop().timestamp(), 2);
  EXPECT_TRUE(buffer.empty());
}

TEST(StreamBufferTest, CountsByKind) {
  StreamBuffer buffer("b");
  buffer.Push(Tuple::MakeData(1, {}));
  buffer.Push(Tuple::MakePunctuation(2));
  buffer.Push(Tuple::MakeData(3, {}));
  EXPECT_EQ(buffer.total_pushed(), 3u);
  EXPECT_EQ(buffer.data_pushed(), 2u);
  EXPECT_EQ(buffer.punctuation_pushed(), 1u);
  EXPECT_EQ(buffer.data_size(), 2u);
  buffer.Pop();  // data
  EXPECT_EQ(buffer.data_size(), 1u);
  buffer.Pop();  // punctuation
  EXPECT_EQ(buffer.data_size(), 1u);
}

TEST(StreamBufferTest, PopEmptyDies) {
  StreamBuffer buffer("b");
  EXPECT_DEATH(buffer.Pop(), "");
  EXPECT_DEATH(buffer.Front(), "");
}

class CountingListener : public BufferListener {
 public:
  void OnPush(const StreamBuffer&, const Tuple&) override { ++pushes; }
  void OnPop(const StreamBuffer&, const Tuple&) override { ++pops; }
  int pushes = 0;
  int pops = 0;
};

TEST(StreamBufferTest, ListenerNotified) {
  StreamBuffer buffer("b");
  CountingListener listener;
  buffer.ReplaceListeners(&listener);
  buffer.Push(Tuple::MakeData(1, {}));
  buffer.Push(Tuple::MakePunctuation(2));
  buffer.Pop();
  EXPECT_EQ(listener.pushes, 2);
  EXPECT_EQ(listener.pops, 1);
  buffer.ReplaceListeners(nullptr);
  buffer.Pop();
  EXPECT_EQ(listener.pops, 1);
}

TEST(StreamBufferTest, NameAndId) {
  StreamBuffer buffer("F1->U");
  EXPECT_EQ(buffer.name(), "F1->U");
  EXPECT_EQ(buffer.id(), -1);
  buffer.set_id(4);
  EXPECT_EQ(buffer.id(), 4);
}

TEST(TsmRegisterTest, StartsUninitialized) {
  TsmRegister reg;
  EXPECT_FALSE(reg.initialized());
  EXPECT_EQ(reg.value(), kMinTimestamp);
}

TEST(TsmRegisterTest, ObserveAdvances) {
  TsmRegister reg;
  reg.Observe(10);
  EXPECT_TRUE(reg.initialized());
  EXPECT_EQ(reg.value(), 10);
  reg.Observe(20);
  EXPECT_EQ(reg.value(), 20);
}

TEST(TsmRegisterTest, StaleObservationsIgnored) {
  TsmRegister reg;
  reg.Observe(20);
  reg.Observe(10);  // simultaneous/stale: keep the max
  EXPECT_EQ(reg.value(), 20);
  reg.Observe(20);
  EXPECT_EQ(reg.value(), 20);
}

TEST(TsmRegisterTest, ValueSurvivesUntilNextUpdate) {
  // The core of the simultaneous-tuple fix: the register keeps the last
  // timestamp even after the tuple that set it was consumed.
  TsmRegister reg;
  reg.Observe(100);
  // ... tuple consumed; nothing else arrives ...
  EXPECT_EQ(reg.value(), 100);
}

TEST(TsmRegisterTest, ResetClears) {
  TsmRegister reg;
  reg.Observe(5);
  reg.Reset();
  EXPECT_FALSE(reg.initialized());
}

// Shed-then-restore accounting: after a kShedOldest buffer sheds, a
// checkpoint/restore cycle must round-trip total_pushed / data_pushed /
// punctuation_pushed (== total - data) and shed_tuples exactly, with the
// queued contents intact. Guards the RestoreSnapshot path the recovery
// manager drives.
TEST(StreamBufferTest, ShedCheckpointRestoreRoundTripsCounters) {
  StreamBuffer buffer("b");
  buffer.set_capacity_limit(3, OverloadPolicy::kShedOldest);
  buffer.Push(Tuple::MakeData(1, {}));
  buffer.Push(Tuple::MakePunctuation(2));
  buffer.Push(Tuple::MakeData(3, {}));
  buffer.Push(Tuple::MakeData(4, {}));  // sheds data@1
  buffer.Push(Tuple::MakeData(5, {}));  // sheds punct@2
  ASSERT_EQ(buffer.size(), 3u);
  ASSERT_EQ(buffer.shed_tuples(), 2u);
  ASSERT_EQ(buffer.total_pushed(), 5u);
  ASSERT_EQ(buffer.data_pushed(), 4u);
  ASSERT_EQ(buffer.punctuation_pushed(), 1u);
  const size_t high_water = buffer.high_water_mark();

  // Checkpoint: what RecoveryManager::SerializeBuffer captures.
  std::vector<Tuple> image;
  buffer.SnapshotTuples(&image);
  ASSERT_EQ(image.size(), 3u);

  StreamBuffer restored("b");
  restored.RestoreSnapshot(std::move(image), buffer.total_pushed(),
                           buffer.data_pushed(), buffer.shed_tuples(),
                           buffer.vetoed_pushes(), high_water);
  EXPECT_EQ(restored.total_pushed(), 5u);
  EXPECT_EQ(restored.data_pushed(), 4u);
  EXPECT_EQ(restored.punctuation_pushed(),
            restored.total_pushed() - restored.data_pushed());
  EXPECT_EQ(restored.punctuation_pushed(), 1u);
  EXPECT_EQ(restored.shed_tuples(), 2u);
  EXPECT_EQ(restored.high_water_mark(), high_water);
  EXPECT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.data_size(), 3u);  // both punctuations left the queue
  EXPECT_EQ(restored.Pop().timestamp(), 3);
  EXPECT_EQ(restored.Pop().timestamp(), 4);
  EXPECT_EQ(restored.Pop().timestamp(), 5);
}

// A snapshot claiming more data than total pushes would make
// punctuation_pushed() underflow; RestoreSnapshot must reject it.
TEST(StreamBufferTest, RestoreSnapshotRejectsInconsistentCounters) {
  StreamBuffer buffer("b");
  EXPECT_DEATH(buffer.RestoreSnapshot({}, /*total_pushed=*/1,
                                      /*data_pushed=*/2, /*shed_tuples=*/0,
                                      /*vetoed_pushes=*/0, /*high_water=*/0),
               "");
}

// A restored high-water mark can never sit below the restored occupancy.
TEST(StreamBufferTest, RestoreSnapshotClampsHighWaterToOccupancy) {
  std::vector<Tuple> image;
  image.push_back(Tuple::MakeData(1, {}));
  image.push_back(Tuple::MakeData(2, {}));
  StreamBuffer restored("b");
  restored.RestoreSnapshot(std::move(image), /*total_pushed=*/2,
                           /*data_pushed=*/2, /*shed_tuples=*/0,
                           /*vetoed_pushes=*/0, /*high_water=*/0);
  EXPECT_EQ(restored.high_water_mark(), 2u);
}

}  // namespace
}  // namespace dsms

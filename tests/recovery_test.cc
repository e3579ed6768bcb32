// Unit and chaos tests for the crash-recovery layer: the CRC-32 guarding
// every durable file, WAL append/replay with torn-tail truncation, segment
// rotation and trimming, atomic checkpoint files with CRC fallback, durable
// sink truncation, the backoff-jitter schedule, the recovery plan
// statements, and the recovery.* metrics surface. The crashes here are
// simulated with file surgery (truncating and corrupting bytes the way an
// interrupted write would); the end-to-end kill-the-server exercise lives
// in recovery_loopback_test.cc.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/time.h"
#include "core/tuple.h"
#include "json_validator.h"
#include "net/feed_client.h"
#include "obs/metrics_registry.h"
#include "recovery/checkpoint.h"
#include "recovery/crc32.h"
#include "recovery/durable_sink.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal.h"
#include "sim/experiment_spec.h"
#include "test_seed.h"

namespace dsms {
namespace {

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// A per-test scratch directory, wiped before use so reruns start clean.
std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/dsms_recovery_" + tag;
  for (const std::string& name : ListDir(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

std::vector<std::string> ListSegments(const std::string& dir) {
  std::vector<std::string> segments;
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".seg") == 0) {
      segments.push_back(name);
    }
  }
  return segments;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- CRC-32 ---

/// The bytewise definition the slicing-by-8 Crc32 must reproduce bit for
/// bit (WAL, checkpoint and block bytes already on disk depend on it).
uint32_t BytewiseCrc32(const unsigned char* p, size_t size, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const uint64_t seed = test::TestSeedOr(0xc3c32);
  DSMS_TRACE_SEED(seed);
  Pcg32 rng(seed);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.NextUint32());
  }
  for (size_t len = 0; len <= 4096; ++len) {
    const size_t start = len % 8;  // every start alignment mod 8
    const unsigned char* p = buf.data() + start;
    ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
        << "len " << len << " start " << start;
  }
  // Chaining through the seed argument agrees too.
  for (int i = 0; i < 200; ++i) {
    const size_t start = rng.NextBelow(8);
    const size_t len = rng.NextBelow(4096);
    const size_t split = rng.NextBelow(static_cast<uint32_t>(len + 1));
    const unsigned char* p = buf.data() + start;
    const uint32_t chained = Crc32(p + split, len - split, Crc32(p, split));
    ASSERT_EQ(chained, BytewiseCrc32(p, len, 0));
    ASSERT_EQ(chained, Crc32(p, len));
  }
}

TEST(WalTest, RoundTripPreservesRecords) {
  const std::string dir = FreshDir("wal_roundtrip");
  WalOptions options;
  options.dir = dir;
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(0).ok());
  for (int i = 0; i < 10; ++i) {
    std::string frame = "frame-" + std::to_string(i);
    ASSERT_TRUE(writer.Append(i * 10 * kMillisecond, i % 3, frame).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(writer.next_index(), 10u);
  EXPECT_EQ(writer.appends(), 10u);

  std::vector<WalRecord> records;
  uint64_t next = 0, torn = 0;
  ASSERT_TRUE(ReadWalTail(dir, 0, &records, &next, &torn).ok());
  EXPECT_EQ(next, 10u);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].index, static_cast<uint64_t>(i));
    EXPECT_EQ(records[i].arrival, i * 10 * kMillisecond);
    EXPECT_EQ(records[i].conn_id, i % 3);
    EXPECT_EQ(records[i].frame, "frame-" + std::to_string(i));
  }
}

TEST(WalTest, ReadFromIndexSkipsCoveredPrefix) {
  const std::string dir = FreshDir("wal_from");
  WalOptions options;
  options.dir = dir;
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(0).ok());
  for (int i = 0; i < 8; ++i) {
    // std::string("f") + ... dodges a GCC 12 -Wrestrict false positive in
    // the operator+(const char*, string&&) insert path (PR 105329).
    ASSERT_TRUE(writer.Append(i, 1, std::string("f") + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  std::vector<WalRecord> records;
  uint64_t next = 0, torn = 0;
  ASSERT_TRUE(ReadWalTail(dir, 5, &records, &next, &torn).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().index, 5u);
  EXPECT_EQ(records.back().index, 7u);
  EXPECT_EQ(next, 8u);
}

TEST(WalTest, RotationSealsSegmentsAndTrimReclaimsThem) {
  const std::string dir = FreshDir("wal_rotate");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 48;  // tiny: every couple of appends rotates
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(0).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(writer.Append(i, 1, "payload-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  const size_t segments_before = ListSegments(dir).size();
  EXPECT_GT(segments_before, 2u);

  ASSERT_TRUE(writer.TrimBelow(8).ok());
  EXPECT_LT(ListSegments(dir).size(), segments_before);

  // Everything at or past the trim point must survive; the trimmed prefix
  // may partially survive (trim works at sealed-segment granularity).
  std::vector<WalRecord> records;
  uint64_t next = 0, torn = 0;
  ASSERT_TRUE(ReadWalTail(dir, 8, &records, &next, &torn).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().index, 8u);
  EXPECT_EQ(records.back().index, 11u);
  EXPECT_EQ(next, 12u);
}

TEST(WalTest, TornTailIsTruncatedAndAppendContinues) {
  const std::string dir = FreshDir("wal_torn");
  WalOptions options;
  options.dir = dir;
  {
    WalWriter writer(options);
    ASSERT_TRUE(writer.Open(0).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.Append(i, 1, "frame-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  // A crash mid-append leaves a partial record at the end of the newest
  // segment. Simulate it by appending garbage that parses as a length
  // prefix with no body.
  std::vector<std::string> segments = ListSegments(dir);
  ASSERT_FALSE(segments.empty());
  const std::string tail_path = dir + "/" + segments.back();
  const size_t clean_size = ReadFile(tail_path).size();
  {
    std::ofstream out(tail_path, std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00\xde\xad", 6);
  }

  std::vector<WalRecord> records;
  uint64_t next = 0, torn = 0;
  ASSERT_TRUE(ReadWalTail(dir, 0, &records, &next, &torn).ok());
  EXPECT_EQ(records.size(), 5u);
  EXPECT_EQ(next, 5u);
  EXPECT_EQ(torn, 6u);
  // The torn bytes were physically removed, so a writer reopening the log
  // appends cleanly right after the last good record.
  EXPECT_EQ(ReadFile(tail_path).size(), clean_size);
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(next).ok());
  ASSERT_TRUE(writer.Append(99, 2, "after-crash").ok());
  ASSERT_TRUE(writer.Sync().ok());
  records.clear();
  ASSERT_TRUE(ReadWalTail(dir, 0, &records, &next, &torn).ok());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.back().frame, "after-crash");
  EXPECT_EQ(records.back().index, 5u);
}

TEST(WalTest, CorruptedRecordEndsTheUsableLog) {
  const std::string dir = FreshDir("wal_crc");
  WalOptions options;
  options.dir = dir;
  {
    WalWriter writer(options);
    ASSERT_TRUE(writer.Open(0).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.Append(i, 1, "frame-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  // Flip one byte in the last record's payload: its CRC fails, so the log
  // must end at record 3 — bit rot cannot smuggle a wrong frame into
  // replay.
  std::vector<std::string> segments = ListSegments(dir);
  ASSERT_FALSE(segments.empty());
  const std::string tail_path = dir + "/" + segments.back();
  std::string bytes = ReadFile(tail_path);
  bytes[bytes.size() - 2] ^= 0x40;
  WriteFile(tail_path, bytes);

  std::vector<WalRecord> records;
  uint64_t next = 0, torn = 0;
  ASSERT_TRUE(ReadWalTail(dir, 0, &records, &next, &torn).ok());
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(next, 4u);
  EXPECT_GT(torn, 0u);
}

CheckpointImage MakeImage(uint64_t id) {
  CheckpointImage image;
  image.checkpoint_id = id;
  image.clock_now = id * kSecond;
  image.frontier = id * kSecond - 100 * kMillisecond;
  image.wal_replay_from = id * 37;
  image.operator_blobs = {{1, "op-one"}, {2, std::string("b\0b", 3)}};
  image.buffer_blobs = {{7, "buffer-seven"}};
  image.executor_blob = "exec-state";
  image.net_blob = "net-state";
  image.durable_seqs = {{0, id * 10}, {3, 4}};
  image.sink_offsets = {{"OUT", 1234}};
  return image;
}

TEST(CheckpointTest, RoundTripPreservesEveryField) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(3), /*keep=*/2).ok());
  uint64_t fallbacks = 0;
  Result<CheckpointImage> loaded = LoadLatestCheckpoint(dir, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(fallbacks, 0u);
  const CheckpointImage want = MakeImage(3);
  EXPECT_EQ(loaded->checkpoint_id, want.checkpoint_id);
  EXPECT_EQ(loaded->clock_now, want.clock_now);
  EXPECT_EQ(loaded->frontier, want.frontier);
  EXPECT_EQ(loaded->wal_replay_from, want.wal_replay_from);
  EXPECT_EQ(loaded->operator_blobs, want.operator_blobs);
  EXPECT_EQ(loaded->buffer_blobs, want.buffer_blobs);
  EXPECT_EQ(loaded->executor_blob, want.executor_blob);
  EXPECT_EQ(loaded->net_blob, want.net_blob);
  EXPECT_EQ(loaded->durable_seqs, want.durable_seqs);
  EXPECT_EQ(loaded->sink_offsets, want.sink_offsets);
}

TEST(CheckpointTest, PruningKeepsOnlyTheNewest) {
  const std::string dir = FreshDir("ckpt_prune");
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(id), /*keep=*/2).ok());
  }
  size_t ckpt_files = 0;
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      ++ckpt_files;
    }
  }
  EXPECT_EQ(ckpt_files, 2u);
  Result<CheckpointImage> loaded = LoadLatestCheckpoint(dir, nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint_id, 4u);
}

TEST(CheckpointTest, CorruptNewestFallsBackToPrevious) {
  const std::string dir = FreshDir("ckpt_corrupt");
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(1), /*keep=*/5).ok());
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(2), /*keep=*/5).ok());
  // Flip a byte in the middle of the newest file: its CRC no longer
  // validates, so the loader must reject it and use checkpoint 1.
  std::string newest;
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      newest = name;  // sorted ascending; the last .ckpt wins
    }
  }
  ASSERT_FALSE(newest.empty());
  std::string bytes = ReadFile(dir + "/" + newest);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFile(dir + "/" + newest, bytes);

  uint64_t fallbacks = 0;
  Result<CheckpointImage> loaded = LoadLatestCheckpoint(dir, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint_id, 1u);
  EXPECT_EQ(fallbacks, 1u);
}

// The DSMSCKP1 layout's executor blob carried one more map than today's;
// such an image must be rejected by its magic, never parsed with the new
// layout. The CRC covers only the body, so only the magic can tell.
TEST(CheckpointTest, RetiredLayoutMagicIsRejected) {
  const std::string dir = FreshDir("ckpt_retired");
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(1), /*keep=*/5).ok());
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(2), /*keep=*/5).ok());
  std::string newest;
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      newest = name;
    }
  }
  ASSERT_FALSE(newest.empty());
  std::string bytes = ReadFile(dir + "/" + newest);
  ASSERT_EQ(bytes.compare(0, 8, "DSMSCKP2"), 0);
  bytes[7] = '1';
  WriteFile(dir + "/" + newest, bytes);

  uint64_t fallbacks = 0;
  Result<CheckpointImage> loaded = LoadLatestCheckpoint(dir, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint_id, 1u);
  EXPECT_EQ(fallbacks, 1u);
}

TEST(CheckpointTest, CrashBeforeRenameLeavesTmpFileThatIsIgnored) {
  const std::string dir = FreshDir("ckpt_tmp");
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeImage(1), /*keep=*/5).ok());
  // A crash between writing the temp file and renaming it leaves a .tmp
  // behind; the loader must not mistake it for a checkpoint.
  WriteFile(dir + "/checkpoint-00000000000000000002.ckpt.tmp",
            "half-written garbage");
  uint64_t fallbacks = 0;
  Result<CheckpointImage> loaded = LoadLatestCheckpoint(dir, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint_id, 1u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointTest, EmptyDirectoryIsNotFound) {
  const std::string dir = FreshDir("ckpt_empty");
  Result<CheckpointImage> loaded = LoadLatestCheckpoint(dir, nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(DurableSinkTest, ResumeOffsetTruncatesReplayedSuffix) {
  const std::string dir = FreshDir("sink_resume");
  Tuple first = Tuple::MakeData(1 * kSecond, {Value(int64_t{1})});
  Tuple second = Tuple::MakeData(2 * kSecond, {Value(int64_t{2})});
  Tuple replacement = Tuple::MakeData(3 * kSecond, {Value(int64_t{3})});

  DurableSink sink(dir, "OUT");
  ASSERT_TRUE(sink.Open(0).ok());
  sink.Write(first);
  const uint64_t cut = sink.offset();
  sink.Write(second);
  ASSERT_TRUE(sink.Flush().ok());
  const std::string full = ReadFile(sink.path());
  EXPECT_EQ(full, first.ToString() + "\n" + second.ToString() + "\n");

  // Recovery truncates back to the checkpointed offset and deterministic
  // replay regenerates the suffix — exactly-once means the prefix is never
  // rewritten and the discarded suffix never double-counts.
  DurableSink resumed(dir, "OUT");
  ASSERT_TRUE(resumed.Open(cut).ok());
  EXPECT_EQ(ReadFile(resumed.path()).size(), cut);
  resumed.Write(replacement);
  ASSERT_TRUE(resumed.Flush().ok());
  EXPECT_EQ(ReadFile(resumed.path()),
            first.ToString() + "\n" + replacement.ToString() + "\n");
}

TEST(BackoffTest, SameSeedSameDelaySequence) {
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);
  FeedClientOptions options;
  options.backoff_base = 100 * kMillisecond;
  options.backoff_max = 5 * kSecond;
  Pcg32 a(seed), b(seed);
  for (int attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(ComputeBackoffDelay(attempt, options, a),
              ComputeBackoffDelay(attempt, options, b))
        << "attempt " << attempt;
  }
}

TEST(BackoffTest, DelaysGrowExponentiallyWithinJitterBounds) {
  const uint64_t seed = test::TestSeedOr(7);
  DSMS_TRACE_SEED(seed);
  FeedClientOptions options;
  options.backoff_base = 100 * kMillisecond;
  options.backoff_max = 5 * kSecond;
  Pcg32 rng(seed);
  for (int attempt = 0; attempt < 12; ++attempt) {
    Duration nominal = options.backoff_base;
    for (int i = 0; i < attempt && nominal < options.backoff_max; ++i) {
      nominal *= 2;
    }
    nominal = std::min(nominal, options.backoff_max);
    Duration delay = ComputeBackoffDelay(attempt, options, rng);
    EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
    EXPECT_LT(delay, nominal) << "attempt " << attempt;
  }
}

constexpr char kRecoveryPlan[] = R"(
stream A ts=internal
sink OUT in=A
run horizon=2s
wal dir=/tmp/x sync=interval sync_interval_bytes=512 segment_bytes=8192
checkpoint horizon=500ms keep=3
crash at=1s
)";

TEST(RecoveryPlanTest, StatementsPopulateTheRecoverySpec) {
  Result<Experiment> experiment =
      ParseExperiment(kRecoveryPlan, /*require_feeds=*/false);
  ASSERT_TRUE(experiment.ok());
  const RecoverySpec& spec = experiment->recovery;
  EXPECT_TRUE(spec.wal);
  EXPECT_EQ(spec.dir, "/tmp/x");
  EXPECT_EQ(spec.sync, WalSyncPolicy::kInterval);
  EXPECT_EQ(spec.sync_interval_bytes, 512u);
  EXPECT_EQ(spec.segment_bytes, 8192u);
  EXPECT_TRUE(spec.checkpoint);
  EXPECT_EQ(spec.checkpoint_horizon, 500 * kMillisecond);
  EXPECT_EQ(spec.keep, 3);
  EXPECT_EQ(spec.crash_at, 1 * kSecond);
}

TEST(RecoveryPlanTest, AbsentStatementsLeaveRecoveryDisabled) {
  Result<Experiment> experiment = ParseExperiment(
      "stream A ts=internal\nsink OUT in=A\nrun horizon=1s\n",
      /*require_feeds=*/false);
  ASSERT_TRUE(experiment.ok());
  EXPECT_FALSE(experiment->recovery.wal);
  EXPECT_FALSE(experiment->recovery.checkpoint);
  EXPECT_EQ(experiment->recovery.crash_at, 0);
}

TEST(RecoveryPlanTest, CheckpointWithoutWalIsRejected) {
  Result<Experiment> experiment = ParseExperiment(
      "stream A ts=internal\nsink OUT in=A\ncheckpoint horizon=1s\n",
      /*require_feeds=*/false);
  ASSERT_FALSE(experiment.ok());
  EXPECT_NE(experiment.status().message().find("requires a wal"),
            std::string::npos);
}

TEST(RecoveryPlanTest, MalformedStatementsAreRejected) {
  const char* bad[] = {
      "stream A ts=internal\nsink OUT in=A\nwal sync=none\n",  // no dir
      "stream A ts=internal\nsink OUT in=A\nwal dir=/x sync=sometimes\n",
      "stream A ts=internal\nsink OUT in=A\nwal dir=/x\nwal dir=/y\n",
      "stream A ts=internal\nsink OUT in=A\ncrash\n",  // no at=
      "stream A ts=internal\nsink OUT in=A\ncrash at=0s\n",
      "stream A ts=internal\nsink OUT in=A\nwal dir=/x\ncheckpoint keep=2\n",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(ParseExperiment(text, /*require_feeds=*/false).ok());
  }
}

TEST(RecoveryMetricsTest, CountersPublishAndRenderAsValidJson) {
  const std::string dir = FreshDir("metrics");
  RecoveryOptions options;
  options.dir = dir;
  options.wal = true;
  options.sync = WalSyncPolicy::kEveryFrame;
  RecoveryManager manager(options);
  ASSERT_TRUE(manager.Open().ok());
  ASSERT_TRUE(manager.AppendFrame(kMillisecond, 1, 0, "frame-a").ok());
  ASSERT_TRUE(manager.AppendFrame(2 * kMillisecond, 1, 0, "frame-b").ok());
  ASSERT_TRUE(manager.AppendFrame(3 * kMillisecond, 1, 2, "frame-c").ok());

  MetricsRegistry registry;
  manager.PublishTo(&registry);
  EXPECT_EQ(registry.GetCounter("recovery.wal_appends")->value(), 3u);
  EXPECT_GT(registry.GetCounter("recovery.wal_synced_bytes")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("recovery.checkpoints_written")->value(), 0u);

  ASSERT_EQ(manager.durable_seqs().count(0), 1u);
  EXPECT_EQ(manager.durable_seqs().at(0), 2u);
  EXPECT_EQ(manager.durable_seqs().at(2), 1u);

  std::ostringstream json;
  registry.PrintJson(json);
  std::string error;
  EXPECT_TRUE(dsms::testing::JsonValidator(json.str()).Validate(&error))
      << error;
}

}  // namespace
}  // namespace dsms

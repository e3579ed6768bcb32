// Unit tests for the spillable time-partitioned state store
// (src/storage/): the key-sliced block file format and its CRC guarding,
// StateTable append/probe/expire semantics (insertion order, keyed probes
// via the per-block hash indexes), budget-driven eviction and load-back
// equivalence, keyed probes that read one slice of a spilled block,
// O(1) whole-block purge of spilled state, checkpoint manifest round trips
// with block-referencing descriptors, orphan-file GC, per-checkpoint file
// pinning, and injected disk faults (stall charging, spill-failure
// shedding).

#include <dirent.h>
#include <limits.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuple.h"
#include "core/value.h"
#include "recovery/state_codec.h"
#include "sim/fault_injector.h"
#include "storage/block_file.h"
#include "storage/state_store.h"

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
  std::string dir = ::testing::TempDir() + "/dsms_storage_" + tag;
  for (const std::string& name : ListDir(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

Tuple Row(Timestamp ts, int64_t key, int64_t payload = 0) {
  return Tuple::MakeData(ts, {Value(key), Value(payload)});
}

std::vector<Tuple> ProbeAll(StateTable& table, Timestamp lo, Timestamp hi,
                            const Value* key = nullptr) {
  std::vector<Tuple> rows;
  table.Probe(lo, hi, key, [&](const Tuple& t) { rows.push_back(t); });
  return rows;
}

std::vector<std::string> Render(const std::vector<Tuple>& rows) {
  std::vector<std::string> lines;
  for (const Tuple& t : rows) lines.push_back(t.ToString());
  return lines;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- block files ---

TEST(BlockFileTest, RoundTrip) {
  std::string dir = FreshDir("blockfile");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 7;
  contents.rows.push_back(Row(10, 1, 100));
  contents.rows.push_back(Row(11, 2, 200));
  ASSERT_TRUE(WriteBlockFile(dir, contents).ok());
  Result<BlockFileContents> loaded = ReadBlockFile(BlockFilePath(dir, 7));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->rows.size(), 2u);
  EXPECT_EQ(loaded->rows[0].ToString(), contents.rows[0].ToString());
  EXPECT_EQ(loaded->rows[1].ToString(), contents.rows[1].ToString());
}

TEST(BlockFileTest, CorruptionIsDetected) {
  std::string dir = FreshDir("blockcorrupt");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 4;
  contents.key_field = 0;
  contents.rows.push_back(Row(10, 1, 100));
  contents.rows.push_back(Row(11, 2, 200));
  contents.rows.push_back(Tuple::MakeData(12, {}));
  contents.rows.push_back(Row(13, 1, 300));
  ASSERT_TRUE(WriteBlockFile(dir, contents).ok());
  const std::string path = BlockFilePath(dir, 4);
  const std::string original = ReadBytes(path);
  // Flip each byte in turn — header, directory, every keyed slice and the
  // key-less slice: a CRC or a structure check must catch every one.
  for (size_t pos = 0; pos < original.size(); ++pos) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0xff);
    WriteBytes(path, bytes);
    EXPECT_FALSE(ReadBlockFile(path).ok()) << "byte " << pos;
  }
  WriteBytes(path, original);
  EXPECT_TRUE(ReadBlockFile(path).ok());
}

TEST(BlockFileTest, KeyedRoundTripRestoresInsertionOrder) {
  std::string dir = FreshDir("blockkeyed");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 9;
  contents.key_field = 0;
  // Keys interleaved, timestamps out of order, and two key-less rows.
  contents.rows.push_back(Row(30, 2, 0));
  contents.rows.push_back(Row(10, 1, 1));
  contents.rows.push_back(Tuple::MakeData(20, {}));
  contents.rows.push_back(Row(5, 2, 3));
  contents.rows.push_back(Row(40, 1, 4));
  contents.rows.push_back(Tuple::MakeData(1, {}));
  ASSERT_TRUE(WriteBlockFile(dir, contents).ok());
  const std::string path = BlockFilePath(dir, 9);

  Result<BlockFileContents> loaded = ReadBlockFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->key_field, 0);
  EXPECT_EQ(Render(loaded->rows), Render(contents.rows));

  Result<std::unique_ptr<BlockFileReader>> reader =
      BlockFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<BlockSliceRow> slice;
  ASSERT_TRUE(
      (*reader)->ReadSlice(0, HashValue(Value(int64_t{2})), &slice).ok());
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].ordinal, 0u);
  EXPECT_EQ(slice[1].ordinal, 3u);
  EXPECT_EQ(slice[1].row.ToString(), contents.rows[3].ToString());
  ASSERT_TRUE(
      (*reader)->ReadSlice(0, HashValue(Value(int64_t{7})), &slice).ok());
  EXPECT_TRUE(slice.empty());
  // A probe keyed on another field than the file was sliced by is refused.
  EXPECT_FALSE(
      (*reader)->ReadSlice(1, HashValue(Value(int64_t{2})), &slice).ok());
  // The whole block reads through the same descriptor.
  Result<BlockFileContents> whole = (*reader)->ReadAll();
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(Render(whole->rows), Render(contents.rows));
}

TEST(BlockFileTest, DirectoryLargerThanTheFirstReadIsReadWhole) {
  // 300 distinct keys: the directory outgrows the keyed reader's stack
  // buffer, so its compare reads into the heap.
  std::string dir = FreshDir("blockwide");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 2;
  contents.key_field = 0;
  for (int i = 0; i < 600; ++i) contents.rows.push_back(Row(i, i % 300, i));
  ASSERT_TRUE(WriteBlockFile(dir, contents).ok());
  const std::string path = BlockFilePath(dir, 2);
  Result<std::unique_ptr<BlockFileReader>> reader =
      BlockFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<BlockSliceRow> slice;
  for (int k : {0, 151, 299}) {
    ASSERT_TRUE(
        (*reader)->ReadSlice(0, HashValue(Value(int64_t{k})), &slice).ok());
    ASSERT_EQ(slice.size(), 2u) << "key " << k;
    EXPECT_EQ(slice[0].ordinal, static_cast<uint32_t>(k));
    EXPECT_EQ(slice[1].ordinal, static_cast<uint32_t>(k + 300));
    EXPECT_EQ(slice[1].row.ToString(), contents.rows[k + 300].ToString());
  }
  Result<BlockFileContents> loaded = ReadBlockFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Render(loaded->rows), Render(contents.rows));
}

TEST(BlockFileTest, RetiredFormatFailsWithClearMessage) {
  std::string dir = FreshDir("blockv1");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  const std::string path = BlockFilePath(dir, 5);
  WriteBytes(path, std::string("DSMSBLK1") + std::string(32, '\0'));
  Result<BlockFileContents> whole = ReadBlockFile(path);
  ASSERT_FALSE(whole.ok());
  EXPECT_NE(whole.status().ToString().find("DSMSBLK1"), std::string::npos);
  Result<std::unique_ptr<BlockFileReader>> keyed =
      BlockFileReader::Open(path);
  ASSERT_FALSE(keyed.ok());
  EXPECT_NE(keyed.status().ToString().find("DSMSBLK1"), std::string::npos);
}

TEST(BlockFileTest, ListSkipsForeignFiles) {
  std::string dir = FreshDir("blocklist");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 3;
  ASSERT_TRUE(WriteBlockFile(dir, contents).ok());
  contents.block_id = 1;
  ASSERT_TRUE(WriteBlockFile(dir, contents).ok());
  std::ofstream(dir + "/notes.txt") << "not a block";
  std::vector<std::pair<uint64_t, std::string>> files;
  ASSERT_TRUE(ListBlockFiles(dir, &files).ok());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].first, 1u);
  EXPECT_EQ(files[1].first, 3u);
}

// --- standalone StateTable (no store: hot-only) ---

TEST(StateTableTest, ProbeBandInInsertionOrder) {
  StateTable table;
  table.set_name("t");
  // Out-of-bucket-order appends still preserve per-probe insertion order.
  table.Append(Row(2500, 1));
  table.Append(Row(500, 2));
  table.Append(Row(1500, 3));
  EXPECT_EQ(table.size(), 3u);
  std::vector<Tuple> rows = ProbeAll(table, 0, 3000);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].value(0).int64_value(), 1);
  EXPECT_EQ(rows[1].value(0).int64_value(), 2);
  EXPECT_EQ(rows[2].value(0).int64_value(), 3);
  // Band [1000, 2000] hits only the middle bucket's row.
  rows = ProbeAll(table, 1000, 2000);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(0).int64_value(), 3);
}

TEST(StateTableTest, KeyedProbeUsesIndexAndReverifiesEquality) {
  StateTable table;
  table.set_key_field(0);
  for (int i = 0; i < 100; ++i) {
    table.Append(Row(/*ts=*/i * 10, /*key=*/i % 5, /*payload=*/i));
  }
  Value key(static_cast<int64_t>(3));
  std::vector<Tuple> rows = ProbeAll(table, 0, 1000, &key);
  ASSERT_EQ(rows.size(), 20u);
  for (const Tuple& t : rows) EXPECT_EQ(t.value(0).int64_value(), 3);
  // Insertion order within the key.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].value(1).int64_value(),
              rows[i].value(1).int64_value());
  }
  EXPECT_GT(table.index_probes(), 0u);
  EXPECT_EQ(table.index_hits(), 20u);
}

TEST(StateTableTest, ExpireStopsAtFirstLiveRow) {
  StateTable table;
  // Same bucket, but the first row is the newest: prefix-stop expiry (the
  // deque semantics the operators rely on) must keep everything.
  table.Append(Row(900, 1));
  table.Append(Row(100, 2));
  table.Expire(/*cutoff=*/500);
  EXPECT_EQ(table.size(), 2u);
  // Now a cutoff above both expires both.
  table.Expire(1000);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(ProbeAll(table, 0, 10000).empty());
}

TEST(StateTableTest, ExpireDropsWholeBlocks) {
  StateTable table;
  for (int i = 0; i < 10; ++i) {
    table.Append(Row(i * kSecond + kSecond / 2, i));
  }
  EXPECT_EQ(table.num_blocks(), 10u);
  table.Expire(5 * kSecond);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_LE(table.num_blocks(), 6u);
  std::vector<Tuple> rows = ProbeAll(table, 0, 100 * kSecond);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].value(0).int64_value(), 5);
}

// --- spilling under a store ---

struct SpillRig {
  explicit SpillRig(const std::string& tag, uint64_t budget = 256,
                    OverloadPolicy overload = OverloadPolicy::kBlockSource) {
    config.mem_budget = budget;
    config.spill_dir = FreshDir(tag);
    config.granularity = kSecond;
    config.overload = overload;
    store = std::make_unique<StateStore>(config);
    EXPECT_TRUE(store->Init().ok());
    table.set_name("t");
    table.set_key_field(0);
    table.Bind(store.get(), nullptr);
  }

  /// Fills `n` one-row buckets; with a 256-byte budget most seal + spill.
  void Fill(int n) {
    for (int i = 0; i < n; ++i) {
      table.Append(Row(i * kSecond + 1, i % 5, i));
      table.MaybeEvict();
    }
  }

  StorageConfig config;
  std::unique_ptr<StateStore> store;
  StateTable table;
};

TEST(StateStoreTest, SpillsColdBlocksUnderBudgetAndLoadsBack) {
  SpillRig rig("spill");
  rig.Fill(50);
  EXPECT_GT(rig.table.num_spilled_blocks(), 0u);
  EXPECT_LE(rig.table.hot_bytes(), rig.config.mem_budget);
  EXPECT_EQ(rig.table.size(), 50u);
  // Block files exist on disk.
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(),
            rig.table.num_spilled_blocks());

  // A full probe loads everything back, contents and order intact.
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  ASSERT_EQ(rows.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rows[i].value(1).int64_value(), i);
  }
  StorageStats stats = rig.store->stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.loads, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(StateStoreTest, EvictionPicksOldestSealedBlocksFirst) {
  SpillRig rig("evictorder");
  rig.Fill(20);
  // The oldest sealed blocks (farthest below the frontier) must be the
  // spilled ones; the newest stay resident.
  std::vector<Tuple> newest = ProbeAll(rig.table, 19 * kSecond, 20 * kSecond);
  ASSERT_EQ(newest.size(), 1u);
  StorageStats before = rig.store->stats();
  // Probing only the newest (resident) band must not trigger any load.
  StorageStats after = rig.store->stats();
  EXPECT_EQ(before.loads, after.loads);
}

TEST(StateStoreTest, KeyedProbeEquivalentToUnbudgetedTable) {
  SpillRig rig("equiv");
  StateTable reference;
  reference.set_key_field(0);
  for (int i = 0; i < 80; ++i) {
    Tuple t = Row(i * 200 * kMillisecond, i % 7, i);
    rig.table.Append(t);
    rig.table.MaybeEvict();
    reference.Append(std::move(t));
  }
  for (int k = 0; k < 7; ++k) {
    Value key(static_cast<int64_t>(k));
    std::vector<Tuple> got = ProbeAll(rig.table, kSecond, 12 * kSecond, &key);
    std::vector<Tuple> want =
        ProbeAll(reference, kSecond, 12 * kSecond, &key);
    ASSERT_EQ(got.size(), want.size()) << "key " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), want[i].ToString());
    }
  }
}

// --- keyed probes of spilled blocks read one slice ---

enum class KeyKind { kInt, kString, kDouble };

Value KeyOf(KeyKind kind, int k) {
  switch (kind) {
    case KeyKind::kInt:
      return Value(static_cast<int64_t>(k));
    case KeyKind::kString:
      return Value("key-" + std::to_string(k));
    case KeyKind::kDouble:
      return Value(0.5 + k);
  }
  return Value();
}

/// Appends rows [from, to) to both tables: keys 0..5 of `kind` at 100 ms
/// spacing, every 7th row 1.5 s late (it extends the tail, so insertion
/// order differs from timestamp order), every 11th row with no fields at
/// all (no key).
void AppendMixed(KeyKind kind, int from, int to, StateTable* spilling,
                 StateTable* reference, bool evict) {
  for (int i = from; i < to; ++i) {
    Timestamp ts = i * 100 * kMillisecond;
    if (i % 7 == 3) ts -= 1500 * kMillisecond;
    Tuple t = i % 11 == 5
                  ? Tuple::MakeData(ts, {})
                  : Tuple::MakeData(ts, {KeyOf(kind, i % 6),
                                         Value(static_cast<int64_t>(i))});
    spilling->Append(t);
    if (evict) spilling->MaybeEvict();
    reference->Append(std::move(t));
  }
}

TEST(StateStoreSliceTest, KeyedProbesOfSpilledBlocksMatchUnbudgetedTable) {
  for (KeyKind kind : {KeyKind::kInt, KeyKind::kString, KeyKind::kDouble}) {
    SCOPED_TRACE("key kind " + std::to_string(static_cast<int>(kind)));
    SpillRig rig("slice_equiv" + std::to_string(static_cast<int>(kind)),
                 /*budget=*/1024);
    StateTable reference;
    reference.set_key_field(0);
    // Three buckets kept hot, then an expiry that cuts into the oldest
    // block while it is resident (its expired prefix holds a late row),
    // then eviction: the block goes to disk partly expired.
    AppendMixed(kind, 20, 50, &rig.table, &reference, /*evict=*/false);
    rig.table.Expire(2500 * kMillisecond);
    reference.Expire(2500 * kMillisecond);
    rig.table.MaybeEvict();
    ASSERT_GE(rig.table.num_spilled_blocks(), 2u);
    AppendMixed(kind, 50, 200, &rig.table, &reference, /*evict=*/true);
    ASSERT_GT(rig.table.num_spilled_blocks(), 10u);

    const StorageStats before = rig.store->stats();
    const uint64_t hot_before = rig.table.hot_bytes();
    const std::vector<std::pair<Timestamp, Timestamp>> bands = {
        {0, 30 * kSecond},  // reaches below the expiry cutoff
        {5 * kSecond, 12 * kSecond},
        {2500 * kMillisecond, 4 * kSecond}};
    for (const auto& [lo, hi] : bands) {
      // Keys 0..5 occur; 6..8 occur in no block.
      for (int k = 0; k < 9; ++k) {
        const Value key = KeyOf(kind, k);
        std::vector<Tuple> want = ProbeAll(reference, lo, hi, &key);
        EXPECT_EQ(Render(ProbeAll(rig.table, lo, hi, &key)), Render(want))
            << "key " << key.ToString() << " band " << lo << ".." << hi;
        if (k >= 6) {
          EXPECT_TRUE(want.empty());
        }
        for (const Tuple& t : want) EXPECT_EQ(t.num_values(), 2);
      }
    }
    // Keyed reads left every block where it was.
    const StorageStats after = rig.store->stats();
    EXPECT_EQ(after.loads, before.loads);
    EXPECT_EQ(rig.table.hot_bytes(), hot_before);
    EXPECT_EQ(after.hot_bytes, before.hot_bytes);
    EXPECT_GT(after.slice_reads, before.slice_reads);

    // Unkeyed probes load whole blocks and deliver the key-less rows too.
    std::vector<Tuple> all = ProbeAll(rig.table, 0, 30 * kSecond);
    EXPECT_EQ(Render(all), Render(ProbeAll(reference, 0, 30 * kSecond)));
    EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const Tuple& t) {
      return t.num_values() == 0;
    }));
    EXPECT_GT(rig.store->stats().loads, before.loads);
  }
}

TEST(StateStoreSliceTest, OneSliceReadPerSpilledBlockCountedLikeIndexProbes) {
  SpillRig rig("slice_count");
  rig.Fill(30);
  const uint64_t spilled = rig.table.num_spilled_blocks();
  ASSERT_GT(spilled, 20u);
  const StorageStats before = rig.store->stats();
  const uint64_t probes_before = rig.table.index_probes();
  const uint64_t hits_before = rig.table.index_hits();

  Value key(int64_t{3});
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond, &key);
  ASSERT_EQ(rows.size(), 6u);  // rows 3, 8, ..., 28
  const StorageStats after = rig.store->stats();
  EXPECT_EQ(after.slice_reads - before.slice_reads, spilled);
  EXPECT_EQ(after.loads, before.loads);
  EXPECT_EQ(after.hot_bytes, before.hot_bytes);
  // One index probe per block in the band, spilled or not; one hit per
  // delivered row.
  EXPECT_EQ(rig.table.index_probes() - probes_before, rig.table.num_blocks());
  EXPECT_EQ(rig.table.index_hits() - hits_before, 6u);
  EXPECT_EQ(rig.table.num_spilled_blocks(), spilled);
}

TEST(StateStoreSliceTest, DiskStallChargedOncePerSpilledBlockRead) {
  SpillRig rig("slice_stall");
  rig.Fill(30);
  const uint64_t spilled = rig.table.num_spilled_blocks();
  ASSERT_GT(spilled, 0u);
  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);
  rig.table.BeginStep(kSecond);

  Value present(int64_t{3});
  (void)ProbeAll(rig.table, 0, 100 * kSecond, &present);
  EXPECT_EQ(rig.table.TakeStall(),
            static_cast<Duration>(spilled) * 5 * kMillisecond);
  EXPECT_EQ(rig.store->stats().stalls, spilled);
  // A key no block holds still reads every spilled block's directory.
  Value absent(int64_t{77});
  EXPECT_TRUE(ProbeAll(rig.table, 0, 100 * kSecond, &absent).empty());
  EXPECT_EQ(rig.table.TakeStall(),
            static_cast<Duration>(spilled) * 5 * kMillisecond);
  EXPECT_EQ(rig.store->stats().stalls, 2 * spilled);
}

TEST(StateStoreSliceDeathTest, AnyFlippedByteFailStopsAKeyedProbe) {
  // One spilled block of three keys, two rows each (no key-less rows, so
  // every byte of the file is read by the probe of some key).
  SpillRig rig("slice_corrupt", /*budget=*/1);
  for (int i = 0; i < 6; ++i) rig.table.Append(Row(1 + i, i % 3, i));
  rig.table.Append(Row(kSecond + 1, 0, 99));  // seals the block
  rig.table.MaybeEvict();
  ASSERT_EQ(rig.table.num_spilled_blocks(), 1u);
  const std::vector<std::string> files = ListDir(rig.config.spill_dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = rig.config.spill_dir + "/" + files[0];
  const std::string original = ReadBytes(path);

  auto probe_every_key = [&rig] {
    for (int k = 0; k < 3; ++k) {
      Value key(static_cast<int64_t>(k));
      (void)ProbeAll(rig.table, 0, kSecond / 2, &key);
    }
  };
  probe_every_key();  // intact: reads fine
  EXPECT_EQ(rig.store->stats().slice_reads, 3u);
  for (size_t pos = 0; pos < original.size(); ++pos) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0xff);
    WriteBytes(path, bytes);
    EXPECT_FALSE(ReadBlockFile(path).ok()) << "byte " << pos;
    EXPECT_DEATH(probe_every_key(), "block") << "byte " << pos;
  }
  WriteBytes(path, original);
}

TEST(StateStoreSliceDeathTest, FlippedByteOfALargeDirectoryFailStopsAProbe) {
  // 200 keys in one block: the header and directory pass 4 KiB, so the
  // keyed read compares them through its heap buffer.
  SpillRig rig("slice_wide_corrupt", /*budget=*/1);
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) rig.table.Append(Row(1 + i, i, i));
  rig.table.Append(Row(kSecond + 1, 0, 99));  // seals the block
  rig.table.MaybeEvict();
  ASSERT_EQ(rig.table.num_spilled_blocks(), 1u);
  const std::vector<std::string> files = ListDir(rig.config.spill_dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = rig.config.spill_dir + "/" + files[0];
  const std::string original = ReadBytes(path);
  // Prefix (16) + fixed meta (44) + keyed entries (24 each) + key-less
  // entry (16).
  const size_t meta_end = 16 + 44 + kKeys * 24 + 16;
  ASSERT_GT(meta_end, 4096u);
  ASSERT_GT(original.size(), meta_end);

  Value key(int64_t{7});
  auto probe = [&rig, &key] {
    return ProbeAll(rig.table, 0, kSecond / 2, &key);
  };
  ASSERT_EQ(probe().size(), 1u);  // intact: read and cached
  for (size_t pos : {size_t{4096}, size_t{4500}, meta_end - 1}) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0xff);
    WriteBytes(path, bytes);
    EXPECT_DEATH(probe(), "block") << "byte " << pos;
  }
  WriteBytes(path, original);
  EXPECT_EQ(probe().size(), 1u);
}

/// Descriptors of this process that point into `dir`.
size_t OpenFilesUnder(const std::string& dir) {
  char real[PATH_MAX];
  if (::realpath(dir.c_str(), real) == nullptr) return 0;
  const std::string prefix = std::string(real) + "/";
  size_t n = 0;
  for (const std::string& name : ListDir("/proc/self/fd")) {
    char target[PATH_MAX];
    const std::string link = "/proc/self/fd/" + name;
    const ssize_t len = ::readlink(link.c_str(), target, sizeof(target) - 1);
    if (len <= 0) continue;
    if (std::string(target, static_cast<size_t>(len)).rfind(prefix, 0) == 0) {
      ++n;
    }
  }
  return n;
}

TEST(StateStoreSliceTest, OpenBlockFilesStayWithinTheCapAndCloseWithBlocks) {
  // 10 ms buckets over 5 s: more spilled blocks than the cache holds.
  StorageConfig config;
  config.mem_budget = 256;
  config.spill_dir = FreshDir("open_cap");
  config.granularity = 10 * kMillisecond;
  auto store = std::make_unique<StateStore>(config);
  ASSERT_TRUE(store->Init().ok());
  const size_t cap = store->max_open_blocks();
  ASSERT_GE(cap, 1u);
  ASSERT_LE(cap, StateStore::kMaxOpenBlocks);
  const std::string& dir = config.spill_dir;

  auto table = std::make_unique<StateTable>();
  table->set_key_field(0);
  table->Bind(store.get(), nullptr);
  Timestamp next = 0;
  auto fill = [&](int rows) {
    for (int i = 0; i < rows; ++i, next += 10 * kMillisecond) {
      table->Append(Row(next + 1, i % 5, i));
      table->MaybeEvict();
    }
  };
  auto probe_keys = [&] {
    for (int k = 0; k < 5; ++k) {
      Value key(static_cast<int64_t>(k));
      (void)ProbeAll(*table, 0, next, &key);
      EXPECT_LE(OpenFilesUnder(dir), cap) << "key " << k;
    }
  };

  fill(500);
  ASSERT_GT(table->num_spilled_blocks(), cap);
  EXPECT_EQ(OpenFilesUnder(dir), 0u);  // nothing read yet
  probe_keys();
  EXPECT_EQ(OpenFilesUnder(dir), cap);  // the cache is full, not bypassed
  // Expiry purges every spilled block and closes each one.
  table->Expire(next);
  EXPECT_EQ(table->num_spilled_blocks(), 0u);
  EXPECT_EQ(OpenFilesUnder(dir), 0u);

  // A block whose unlink is deferred for a retained checkpoint holds no
  // descriptor.
  fill(50);
  probe_keys();
  ASSERT_GT(OpenFilesUnder(dir), 0u);
  store->OnCheckpoint(/*checkpoint_id=*/1, /*keep=*/2);
  const size_t retained = ListDir(dir).size();
  table->Expire(next);
  EXPECT_EQ(table->num_spilled_blocks(), 0u);
  EXPECT_EQ(ListDir(dir).size(), retained);
  EXPECT_EQ(OpenFilesUnder(dir), 0u);

  fill(50);
  probe_keys();
  ASSERT_GT(OpenFilesUnder(dir), 0u);
  table->Clear();
  EXPECT_EQ(OpenFilesUnder(dir), 0u);

  fill(50);
  probe_keys();
  ASSERT_GT(OpenFilesUnder(dir), 0u);
  store->GcOrphanFiles();
  EXPECT_EQ(OpenFilesUnder(dir), 0u);
  table->Clear();

  // The table goes first (it releases nothing), then the store closes what
  // it still holds.
  fill(50);
  probe_keys();
  ASSERT_GT(OpenFilesUnder(dir), 0u);
  table.reset();
  EXPECT_GT(OpenFilesUnder(dir), 0u);
  store.reset();
  EXPECT_EQ(OpenFilesUnder(dir), 0u);
}

TEST(StateStoreTest, ExpirePurgesSpilledBlocksWithoutLoading) {
  SpillRig rig("purge");
  rig.Fill(30);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  uint64_t loads_before = rig.store->stats().loads;
  rig.table.Expire(25 * kSecond);
  EXPECT_EQ(rig.table.size(), 5u);
  // Whole-block purge: no file was read to drop spilled blocks...
  EXPECT_EQ(rig.store->stats().loads, loads_before);
  EXPECT_GT(rig.store->stats().purged_blocks, 0u);
  // ...and their files are gone (only still-spilled blocks remain).
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(),
            rig.table.num_spilled_blocks());
}

TEST(StateStoreTest, ClearReleasesEverything) {
  SpillRig rig("clear");
  rig.Fill(30);
  rig.table.Clear();
  EXPECT_EQ(rig.table.size(), 0u);
  EXPECT_EQ(rig.table.num_blocks(), 0u);
  EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
}

// --- checkpoint manifest, descriptors, GC ---

TEST(StateStoreTest, SaveLoadRoundTripsSpilledStateByReference) {
  SpillRig rig("ckpt");
  rig.Fill(40);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  std::vector<Tuple> want = ProbeAll(rig.table, 0, 100 * kSecond);
  // Spill again: the equivalence probe above loaded blocks back.
  rig.table.MaybeEvict();

  StateWriter manifest_w;
  rig.store->SaveManifest(manifest_w);
  StateWriter table_w;
  rig.table.SaveState(table_w);
  // A spilled-state checkpoint is O(hot): far smaller than the full rows.
  StateWriter full_w;
  StateTable hot_copy;
  hot_copy.set_key_field(0);
  for (const Tuple& t : want) hot_copy.Append(t);
  hot_copy.SaveState(full_w);
  EXPECT_LT(table_w.data().size(), full_w.data().size());

  // Restore into a fresh store over the same spill dir (the recovery path:
  // manifest first, then table state, then orphan GC).
  StorageConfig config2 = rig.config;
  StateStore store2(config2);
  ASSERT_TRUE(store2.Init().ok());
  StateReader manifest_r(manifest_w.data());
  store2.RestoreManifest(manifest_r);
  StateTable restored;
  restored.set_key_field(0);
  restored.Bind(&store2, nullptr);
  StateReader table_r(table_w.data());
  restored.LoadState(table_r);
  store2.GcOrphanFiles();

  std::vector<Tuple> got = ProbeAll(restored, 0, 100 * kSecond);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ToString(), want[i].ToString());
  }
}

TEST(StateStoreTest, GcRemovesOrphanFilesAndKeepsClaimed) {
  SpillRig rig("gc");
  rig.Fill(40);
  ASSERT_GT(rig.table.num_spilled_blocks(), 2u);
  StateWriter table_w;
  rig.table.SaveState(table_w);
  size_t files = ListDir(rig.config.spill_dir).size();

  // A second incarnation that restores nothing: every file is an orphan.
  {
    StateStore fresh(rig.config);
    ASSERT_TRUE(fresh.Init().ok());
    StateTable t2;
    t2.Bind(&fresh, nullptr);
    fresh.GcOrphanFiles();
    EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
  }

  // Re-create the files and restore properly: all claimed files survive.
  rig.table.Clear();
  SpillRig rig2("gc2");
  rig2.Fill(40);
  StateWriter w2;
  rig2.table.SaveState(w2);
  files = ListDir(rig2.config.spill_dir).size();
  StateStore store3(rig2.config);
  ASSERT_TRUE(store3.Init().ok());
  StateTable t3;
  t3.set_key_field(0);
  t3.Bind(&store3, nullptr);
  StateReader r2(w2.data());
  t3.LoadState(r2);
  store3.GcOrphanFiles();
  EXPECT_EQ(ListDir(rig2.config.spill_dir).size(), files);
}

TEST(StateStoreTest, CheckpointPinsFilesUntilPruned) {
  SpillRig rig("pins");
  rig.Fill(20);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  // Checkpoint 1 references all currently spilled blocks.
  rig.store->OnCheckpoint(/*checkpoint_id=*/1, /*keep=*/2);
  size_t files_at_ckpt1 = ListDir(rig.config.spill_dir).size();

  // The blocks expire: their files must survive while checkpoint 1 is
  // retained (a restore from it would need them)...
  rig.table.Expire(100 * kSecond);
  EXPECT_EQ(rig.table.size(), 0u);
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(), files_at_ckpt1);

  // ...and go away once keep-N pruning drops checkpoint 1.
  rig.store->OnCheckpoint(2, 2);
  rig.store->OnCheckpoint(3, 2);
  rig.store->OnCheckpoint(4, 2);
  EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
}

TEST(StateStoreTest, RestoredClaimsStayPinnedUntilNextCheckpoint) {
  SpillRig rig("restorepin");
  rig.Fill(20);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  StateWriter manifest_w;
  rig.store->SaveManifest(manifest_w);
  StateWriter table_w;
  rig.table.SaveState(table_w);

  // Incarnation 2 restores the image, then everything it restored expires
  // before any new checkpoint is written. The image on disk still
  // references those block files, so they must survive: incarnation 3
  // (a second crash) restores the same image again.
  StateStore store2(rig.config);
  ASSERT_TRUE(store2.Init().ok());
  StateReader manifest_r(manifest_w.data());
  store2.RestoreManifest(manifest_r);
  StateTable restored;
  restored.set_key_field(0);
  restored.Bind(&store2, nullptr);
  StateReader table_r(table_w.data());
  restored.LoadState(table_r);
  store2.PinRestoredClaims(/*checkpoint_id=*/7);
  store2.GcOrphanFiles();
  const size_t files_after_restore = ListDir(rig.config.spill_dir).size();
  ASSERT_GT(files_after_restore, 0u);

  restored.Expire(100 * kSecond);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(), files_after_restore);

  {
    StateStore store3(rig.config);
    ASSERT_TRUE(store3.Init().ok());
    StateReader mr(manifest_w.data());
    store3.RestoreManifest(mr);
    StateTable again;
    again.set_key_field(0);
    again.Bind(&store3, nullptr);
    StateReader tr(table_w.data());
    again.LoadState(tr);
    store3.PinRestoredClaims(7);
    store3.GcOrphanFiles();
    EXPECT_EQ(ProbeAll(again, 0, 100 * kSecond).size(), 20u);
  }

  // Once the next checkpoint lands and keep-N prunes the restored image's
  // pin, the deferred unlinks finally run.
  store2.OnCheckpoint(/*checkpoint_id=*/8, /*keep=*/1);
  EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
}

// --- disk faults ---

TEST(StateStoreTest, DiskStallChargesVirtualTime) {
  SpillRig rig("stall");
  rig.Fill(30);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);

  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);

  rig.table.BeginStep(/*now=*/kSecond);
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  EXPECT_EQ(rows.size(), 30u);  // stalls delay, never corrupt
  Duration stalled = rig.table.TakeStall();
  EXPECT_GT(stalled, 0);
  EXPECT_EQ(stalled % (5 * kMillisecond), 0);
  EXPECT_EQ(rig.table.TakeStall(), 0);  // drained
  EXPECT_GT(rig.store->fault_events(), 0u);
  EXPECT_GT(rig.store->stats().stalls, 0u);
}

// A disk-stall charges each block read or write with probability `prob`,
// like disk-fail: at 0 nothing inside the window stalls.
TEST(StateStoreTest, DiskStallHonoursZeroProbability) {
  SpillRig rig("stall_prob0");
  rig.Fill(30);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);

  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 0.0;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);

  rig.table.BeginStep(/*now=*/kSecond);
  EXPECT_EQ(ProbeAll(rig.table, 0, 100 * kSecond).size(), 30u);
  EXPECT_EQ(rig.table.TakeStall(), 0);
  EXPECT_EQ(rig.store->stats().stalls, 0u);
  EXPECT_EQ(rig.store->fault_events(), 0u);
}

TEST(StateStoreTest, EvictionStallIsChargedToCallerNotVictim) {
  SpillRig rig("stallcaller");
  // A second table holding the oldest (and therefore first-evicted) blocks,
  // all hot: no MaybeEvict between appends.
  StateTable victim;
  victim.set_name("victim");
  victim.set_key_field(0);
  victim.Bind(rig.store.get(), nullptr);
  for (int i = 0; i < 10; ++i) victim.Append(Row(i * kSecond + 1, i));

  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = kSecond;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);

  // Only the caller's step is inside the fault window; the victim table
  // never begins a step (its now_ stays 0, outside the window). The spill
  // penalties must land on the caller — the step actually running — not on
  // the table that happened to own the evicted blocks.
  rig.table.BeginStep(/*now=*/2 * kSecond);
  for (int i = 0; i < 10; ++i) {
    rig.table.Append(Row(100 * kSecond + i, i));
    rig.table.MaybeEvict();
  }
  EXPECT_GT(rig.store->stats().spills, 0u);
  EXPECT_GT(rig.table.TakeStall(), 0);
  EXPECT_EQ(victim.TakeStall(), 0);
}

TEST(StateStoreTest, WideProbeEvictsBehindToStayNearBudget) {
  SpillRig rig("evictbehind");
  rig.Fill(50);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);

  // A probe spanning the whole window loads every spilled block, but must
  // not accumulate them: each is dropped again once delivered (its file is
  // still valid, so the re-drop is free), bounding peak residency by the
  // budget plus the block in flight.
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  ASSERT_EQ(rows.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rows[i].value(1).int64_value(), i);
  }
  const uint64_t one_row = EstimateTupleBytes(Row(0, 0, 0));
  EXPECT_LE(rig.table.hot_bytes(), rig.config.mem_budget + one_row);

  // The blocks are reloadable: a second pass delivers everything again.
  rows = ProbeAll(rig.table, 0, 100 * kSecond);
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_LE(rig.table.hot_bytes(), rig.config.mem_budget + one_row);
}

TEST(StateStoreTest, DiskFailShedsUnderShedPolicy) {
  SpillRig rig("shed", /*budget=*/256, OverloadPolicy::kShedOldest);
  FaultSpec fault;
  fault.kind = FaultKind::kDiskFail;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;  // every spill write fails
  rig.store->ArmFault(fault, 42);
  rig.table.BeginStep(kSecond);
  rig.Fill(30);
  StorageStats stats = rig.store->stats();
  EXPECT_GT(stats.spill_failures, 0u);
  EXPECT_GT(stats.shed_rows, 0u);
  EXPECT_LT(rig.table.size(), 30u);       // rows were shed
  EXPECT_LE(rig.table.hot_bytes(), 256u);  // but the budget held
}

TEST(StateStoreTest, DiskFailBlocksPolicyKeepsStateHotOverBudget) {
  SpillRig rig("holdhot", /*budget=*/256, OverloadPolicy::kBlockSource);
  FaultSpec fault;
  fault.kind = FaultKind::kDiskFail;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;
  rig.store->ArmFault(fault, 42);
  rig.table.BeginStep(kSecond);
  rig.Fill(30);
  // Nothing shed: the store degrades to in-memory (over budget) until the
  // disk heals.
  EXPECT_EQ(rig.table.size(), 30u);
  EXPECT_GT(rig.store->stats().spill_failures, 0u);
  EXPECT_EQ(rig.store->stats().shed_rows, 0u);
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  EXPECT_EQ(rows.size(), 30u);
}

// --- metrics surface ---

TEST(StateStoreTest, StatsPublishToRegistry) {
  SpillRig rig("metrics");
  rig.Fill(30);
  (void)ProbeAll(rig.table, 0, 100 * kSecond);
  StorageStats stats = rig.store->stats();
  EXPECT_GT(stats.hot_bytes + stats.spilled_bytes, 0u);
  EXPECT_EQ(stats.blocks_resident + stats.blocks_spilled,
            rig.table.num_blocks());
}

// --- helpers ---

TEST(StateStoreHelpersTest, EstimateTupleBytesIsDeterministic) {
  Tuple t = Row(123, 4, 5);
  EXPECT_EQ(EstimateTupleBytes(t), EstimateTupleBytes(t));
  EXPECT_GT(EstimateTupleBytes(t), 0u);
}

TEST(StateStoreHelpersTest, HashValueConsistentWithEquality) {
  EXPECT_EQ(HashValue(Value(static_cast<int64_t>(7))),
            HashValue(Value(static_cast<int64_t>(7))));
  EXPECT_NE(HashValue(Value(static_cast<int64_t>(7))),
            HashValue(Value(static_cast<int64_t>(8))));
  EXPECT_EQ(HashValue(Value(1.5)), HashValue(Value(1.5)));
  EXPECT_EQ(HashValue(Value("abc")), HashValue(Value("abc")));
}

}  // namespace
}  // namespace dsms

#include "storage/state_store.h"

#include <errno.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "operators/operator.h"
#include "recovery/state_codec.h"
#include "storage/block_file.h"

namespace dsms {

namespace {

/// Bucket index of `ts` under `granularity`, as a floor division so
/// negative timestamps land in the bucket below zero, not astride it.
int64_t BucketOf(Timestamp ts, Duration granularity) {
  int64_t q = ts / granularity;
  if (ts % granularity < 0) --q;
  return q;
}

}  // namespace

uint64_t EstimateTupleBytes(const Tuple& tuple) {
  uint64_t bytes = sizeof(Tuple);
  const InlinedValues& values = tuple.values();
  if (values.size() > InlinedValues::kInlineCapacity) {
    bytes += values.size() * sizeof(Value);
  }
  for (const Value& v : values) {
    if (v.is_string()) bytes += v.string_value().size() + sizeof(std::string);
  }
  return bytes;
}

// ---------------------------------------------------------------- StateTable

StateTable::~StateTable() {
  if (store_ != nullptr) store_->Unregister(this);
}

void StateTable::set_key_field(int field) {
  DSMS_CHECK(blocks_.empty());
  key_field_ = field;
}

void StateTable::Bind(StateStore* store, Operator* owner) {
  if (store_ != nullptr && store_ != store) store_->Unregister(this);
  owner_ = owner;
  if (store_ != store) {
    store_ = store;
    if (store_ != nullptr) store_->Register(this);
  }
}

Duration StateTable::TakeStall() {
  Duration d = pending_stall_;
  pending_stall_ = 0;
  return d;
}

void StateTable::IndexRow(Block& block, uint32_t row) {
  if (key_field_ < 0) return;
  const Tuple& tuple = block.rows[row];
  if (key_field_ >= tuple.num_values()) return;  // malformed row: scan path
  block.index[HashValue(tuple.value(key_field_))].push_back(row);
}

void StateTable::BuildIndex(Block& block) {
  block.index.clear();
  if (key_field_ < 0) return;
  for (uint32_t i = 0; i < block.rows.size(); ++i) IndexRow(block, i);
}

void StateTable::Append(Tuple tuple) {
  DSMS_CHECK(tuple.has_timestamp());
  StateStore::Guard guard(store_);
  Timestamp ts = tuple.timestamp();
  Duration granularity =
      store_ != nullptr ? store_->config().granularity : kSecond;
  int64_t bucket = BucketOf(ts, granularity);
  Timestamp bucket_start = bucket * granularity;

  Block* t = tail();
  if (t == nullptr || bucket_start > t->bucket_start) {
    if (t != nullptr) t->sealed = true;
    auto block = std::make_unique<Block>();
    block->id = store_ != nullptr ? store_->AllocateBlockId()
                                  : local_next_block_id_++;
    block->bucket_start = bucket_start;
    block->bucket_end = bucket_start + granularity;
    blocks_.push_back(std::move(block));
    t = tail();
  }
  // Late tuples (below the tail's bucket) extend the tail rather than
  // reopening a sealed, possibly spilled block: sealed blocks stay
  // immutable, and the band checks at probe time make placement a pure
  // storage concern.
  uint64_t bytes = EstimateTupleBytes(tuple);
  t->min_ts = std::min(t->min_ts, ts);
  t->max_ts = std::max(t->max_ts, ts);
  t->rows.push_back(std::move(tuple));
  t->nrows = static_cast<uint32_t>(t->rows.size());
  t->bytes += bytes;
  hot_bytes_ += bytes;
  ++live_rows_;
  IndexRow(*t, t->nrows - 1);
}

void StateTable::EnsureResident(Block& block) {
  if (!block.spilled) return;
  DSMS_CHECK(store_ != nullptr);
  store_->LoadBlock(this, block);
}

void StateTable::Probe(Timestamp lo, Timestamp hi, const Value* key,
                       const std::function<void(const Tuple&)>& fn) {
  StateStore::Guard guard(store_);
  const bool keyed = key != nullptr && key_field_ >= 0;
  uint64_t key_hash = keyed ? HashValue(*key) : 0;
  // Slice rows of spilled blocks, owned by this call rather than the store:
  // a multi-way join's nested probes read further slices while pointers
  // into this one are still live.
  std::vector<BlockSliceRow> slice;
  auto deliver_keyed = [&](const Block& block, uint32_t ordinal,
                           const Tuple& stored) {
    if (ordinal < block.expired_prefix) return;
    Timestamp sts = stored.timestamp();
    if (sts < lo || sts > hi) return;
    if (!(stored.value(key_field_) == *key)) return;  // collision
    ++index_hits_;
    fn(stored);
  };
  for (auto& block_ptr : blocks_) {
    Block& block = *block_ptr;
    if (block.nrows == 0) continue;
    // Time pruning on metadata only: disjoint blocks are skipped without
    // loading them — the point of partitioning state by time.
    if (block.max_ts < lo || block.min_ts > hi) continue;
    if (keyed) {
      ++index_probes_;
      if (block.spilled) {
        // Only the key's slice is read; the block stays on disk, so
        // residency and eviction are untouched.
        store_->ReadSlice(this, block, key_hash, &slice);
        for (const BlockSliceRow& r : slice) {
          deliver_keyed(block, r.ordinal, r.row);
        }
        continue;
      }
      auto it = block.index.find(key_hash);
      if (it != block.index.end()) {
        for (uint32_t row : it->second) {
          deliver_keyed(block, row, block.rows[row]);
        }
      }
      continue;
    }
    const bool loaded_here = block.spilled;
    EnsureResident(block);
    for (uint32_t row = block.expired_prefix; row < block.rows.size(); ++row) {
      const Tuple& stored = block.rows[row];
      Timestamp sts = stored.timestamp();
      if (sts < lo || sts > hi) continue;
      fn(stored);
    }
    // Evict-behind: a block this probe had to load back is done delivering
    // (every fn call above returned, so no caller holds pointers into it);
    // if the load pushed the store over budget, drop it again now rather
    // than letting a window-spanning probe accumulate the whole window hot.
    if (loaded_here) store_->EvictBehind(this, block);
  }
}

void StateTable::PurgeBlock(Block& block) {
  size_t live = block.nrows - block.expired_prefix;
  live_rows_ -= live;
  if (block.spilled) {
    DSMS_CHECK(store_ != nullptr);
    store_->ReleaseBlockFile(block.id);
  } else {
    hot_bytes_ -= block.bytes;
    if (block.disk_valid && store_ != nullptr) {
      store_->ReleaseBlockFile(block.id);
    }
  }
}

void StateTable::Expire(Timestamp cutoff) {
  StateStore::Guard guard(store_);
  while (!blocks_.empty()) {
    Block& block = *blocks_.front();
    if (block.sealed && (block.nrows == 0 || block.max_ts < cutoff)) {
      // Whole-block purge: O(1) drop for hot blocks, O(1) unlink for
      // spilled ones — never a load.
      PurgeBlock(block);
      if (store_ != nullptr) ++store_->purged_blocks_;
      blocks_.erase(blocks_.begin());
      continue;
    }
    if (block.spilled) return;  // partially live on disk: leave it alone
    while (block.expired_prefix < block.rows.size() &&
           block.rows[block.expired_prefix].timestamp() < cutoff) {
      ++block.expired_prefix;
      --live_rows_;
    }
    // Prefix-stop: the first live row ends the pass, matching the
    // pop_front loop this replaces.
    return;
  }
}

void StateTable::MaybeEvict() {
  if (store_ != nullptr) store_->EnforceBudget(this);
}

size_t StateTable::num_spilled_blocks() const {
  size_t n = 0;
  for (const auto& block : blocks_) n += block->spilled ? 1 : 0;
  return n;
}

uint64_t StateTable::spilled_bytes() const {
  uint64_t bytes = 0;
  for (const auto& block : blocks_) {
    if (block->spilled) bytes += block->bytes;
  }
  return bytes;
}

void StateTable::SaveState(StateWriter& w) const {
  StateStore::Guard guard(store_);
  w.U32(static_cast<uint32_t>(blocks_.size()));
  for (const auto& block_ptr : blocks_) {
    const Block& block = *block_ptr;
    w.U64(block.id);
    w.Bool(block.spilled);
    w.Ts(block.bucket_start);
    w.Ts(block.bucket_end);
    w.Ts(block.min_ts);
    w.Ts(block.max_ts);
    w.U32(block.expired_prefix);
    if (block.spilled) {
      // Descriptor only: the checkpoint references the immutable file by
      // id, so checkpoint size is O(hot state).
      w.U32(block.nrows);
      w.U64(block.bytes);
    } else {
      w.U32(static_cast<uint32_t>(block.rows.size()));
      for (const Tuple& row : block.rows) w.Tup(row);
    }
    w.Bool(block.sealed);
  }
}

void StateTable::LoadState(StateReader& r) {
  Clear();
  StateStore::Guard guard(store_);
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    auto block = std::make_unique<Block>();
    block->id = r.U64();
    bool spilled = r.Bool();
    block->bucket_start = r.Ts();
    block->bucket_end = r.Ts();
    block->min_ts = r.Ts();
    block->max_ts = r.Ts();
    block->expired_prefix = r.U32();
    if (spilled) {
      block->nrows = r.U32();
      block->bytes = r.U64();
      block->spilled = true;
      block->disk_valid = true;
      if (!r.ok()) return;
      // A spilled descriptor without a bound store is a plan/config
      // mismatch (the restored plan lost its `state` statement); state
      // cannot be reconstructed, so fail loudly.
      DSMS_CHECK(store_ != nullptr);
      store_->ClaimRestoredFile(block->id);
    } else {
      uint32_t rows = r.U32();
      block->rows.reserve(rows);
      for (uint32_t j = 0; j < rows && r.ok(); ++j) {
        block->rows.push_back(r.Tup());
      }
      block->nrows = static_cast<uint32_t>(block->rows.size());
      for (const Tuple& row : block->rows) {
        block->bytes += EstimateTupleBytes(row);
      }
      // Restored inline: any file left for this id may predate appends
      // that happened before the checkpoint (a tail spilled after the
      // cut), so it is not trusted — orphan GC removes it.
      block->disk_valid = false;
      hot_bytes_ += block->bytes;
      BuildIndex(*block);
    }
    block->sealed = r.Bool();
    if (spilled) block->sealed = true;
    if (!r.ok()) return;
    live_rows_ += block->nrows - block->expired_prefix;
    blocks_.push_back(std::move(block));
  }
}

void StateTable::Clear() {
  StateStore::Guard guard(store_);
  for (auto& block : blocks_) {
    if ((block->spilled || block->disk_valid) && store_ != nullptr) {
      store_->ReleaseBlockFile(block->id);
    }
  }
  blocks_.clear();
  live_rows_ = 0;
  hot_bytes_ = 0;
}

// ---------------------------------------------------------------- StateStore

StateStore::StateStore(StorageConfig config)
    : config_(std::move(config)), fault_rng_(0, 0xd15cULL) {
  DSMS_CHECK_GT(config_.granularity, 0);
}

Status StateStore::Init() {
  if (config_.spill_dir.empty()) return OkStatus();
  if (::mkdir(config_.spill_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return InternalError(StrFormat("mkdir %s: %s", config_.spill_dir.c_str(),
                                   strerror(errno)));
  }
  return OkStatus();
}

void StateStore::Register(StateTable* table) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  tables_.push_back(table);
}

void StateStore::Unregister(StateTable* table) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  tables_.erase(std::remove(tables_.begin(), tables_.end(), table),
                tables_.end());
}

void StateStore::ArmFault(const FaultSpec& spec, uint64_t run_seed) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  fault_ = spec;
  // Same derivation shape as FaultInjector, distinct stream so a disk
  // fault and an arrival fault with equal seeds stay independent.
  fault_rng_ = Pcg32(spec.seed ^ (run_seed * 0x9e3779b97f4a7c15ULL),
                     0xd15cULL);
}

bool StateStore::FaultFires(FaultKind kind, Timestamp now) {
  if (fault_.kind != kind) return false;
  if (now < fault_.start || now >= fault_.start + fault_.duration) {
    return false;
  }
  if (!fault_rng_.NextBernoulli(fault_.probability)) return false;
  ++fault_events_;
  return true;
}

void StateStore::ChargeStallIfFaulted(StateTable* table) {
  if (!FaultFires(FaultKind::kDiskStall, table->now_)) return;
  table->pending_stall_ += fault_.magnitude;
  ++stalls_;
  stall_time_ += fault_.magnitude;
}

void StateStore::LoadBlock(StateTable* table, StateTable::Block& block) {
  DSMS_CHECK(block.spilled);
  Result<BlockFileContents> contents =
      ReadBlockFile(BlockFilePath(config_.spill_dir, block.id));
  // Fail-stop: Result aborts on error — a missing or corrupt referenced
  // block cannot be papered over without breaking replay identity.
  BlockFileContents file = std::move(contents.value());
  DSMS_CHECK_EQ(file.rows.size(), block.nrows);
  block.rows = std::move(file.rows);
  block.spilled = false;  // disk_valid stays: the file remains usable
  table->hot_bytes_ += block.bytes;
  table->BuildIndex(block);
  ++loads_;
  NoteBlockRead(table, block.id, block.nrows);
}

void StateStore::ReadSlice(StateTable* table, const StateTable::Block& block,
                           uint64_t key_hash,
                           std::vector<BlockSliceRow>* rows) {
  DSMS_CHECK(block.spilled);
  // Fail-stop, like a whole-block load.
  DSMS_CHECK_OK(ReadBlockSlice(BlockFilePath(config_.spill_dir, block.id),
                               table->key_field_, key_hash, rows));
  ++slice_reads_;
  NoteBlockRead(table, block.id, rows->size());
}

void StateStore::NoteBlockRead(StateTable* table, uint64_t block_id,
                               size_t rows) {
  ChargeStallIfFaulted(table);
  if (table->owner_ != nullptr && table->owner_->tracer() != nullptr) {
    table->owner_->tracer()->RecordStateLoad(table->owner_->id(),
                                             static_cast<int64_t>(block_id),
                                             static_cast<int64_t>(rows));
  }
}

bool StateStore::EvictBlock(StateTable* caller, StateTable* table,
                            StateTable::Block& block) {
  DSMS_CHECK(!block.spilled);
  DSMS_CHECK(block.sealed);
  if (!block.disk_valid) {
    if (FaultFires(FaultKind::kDiskFail, caller->now_)) {
      ++spill_failures_;
      if (config_.overload == OverloadPolicy::kShedOldest) {
        // Disk unwritable and memory over budget: shed the victim's rows,
        // mirroring the buffer policy of the same name. The block stays as
        // an empty tombstone so ids and ordering are untouched.
        size_t live = block.nrows - block.expired_prefix;
        shed_rows_ += live;
        table->live_rows_ -= live;
        table->hot_bytes_ -= block.bytes;
        block.rows.clear();
        block.rows.shrink_to_fit();
        block.index.clear();
        block.nrows = 0;
        block.expired_prefix = 0;
        block.bytes = 0;
        return true;
      }
      // Any other policy degrades to in-memory: keep the block hot (over
      // budget) and stop evicting until the disk heals.
      return false;
    }
    BlockFileContents file;
    file.block_id = block.id;
    file.bucket_start = block.bucket_start;
    file.bucket_end = block.bucket_end;
    file.min_ts = block.min_ts;
    file.max_ts = block.max_ts;
    file.rows = std::move(block.rows);
    file.key_field = table->key_field_;
    DSMS_CHECK_OK(WriteBlockFile(config_.spill_dir, file));
    block.rows.clear();
    block.disk_valid = true;
    ++spills_;
    // The penalty lands on the caller — the step actually running — even
    // when the victim belongs to another operator: the victim's
    // now_/pending_stall_ are owned by its own (possibly concurrent) step.
    ChargeStallIfFaulted(caller);
    if (table->owner_ != nullptr && table->owner_->tracer() != nullptr) {
      table->owner_->tracer()->RecordStateSpill(
          table->owner_->id(), static_cast<int64_t>(block.id), block.nrows);
    }
  }
  block.rows.clear();
  block.rows.shrink_to_fit();
  block.index.clear();
  block.spilled = true;
  table->hot_bytes_ -= block.bytes;
  ++evictions_;
  return true;
}

void StateStore::EnforceBudget(StateTable* caller) {
  if (!spill_enabled()) return;
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (;;) {
    uint64_t hot = 0;
    for (StateTable* table : tables_) hot += table->hot_bytes_;
    if (hot <= config_.mem_budget) return;
    // Victim: the sealed resident block farthest below the could-result-in
    // frontier — smallest max timestamp, block id as a deterministic
    // tie-break. The unsealed tail is never evicted, so the rows a running
    // probe can point at stay put.
    StateTable* victim_table = nullptr;
    StateTable::Block* victim = nullptr;
    for (StateTable* table : tables_) {
      for (auto& block : table->blocks_) {
        if (block->spilled || !block->sealed || block->nrows == 0) continue;
        if (victim == nullptr || block->max_ts < victim->max_ts ||
            (block->max_ts == victim->max_ts && block->id < victim->id)) {
          victim = block.get();
          victim_table = table;
        }
      }
    }
    if (victim == nullptr) return;  // everything evictable already is
    if (!EvictBlock(caller, victim_table, *victim)) {
      return;  // disk_fail: hold hot
    }
  }
}

void StateStore::EvictBehind(StateTable* table, StateTable::Block& block) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!spill_enabled()) return;
  // Only a sealed block with a still-valid file qualifies — exactly what a
  // load leaves behind — so the drop is free and fault-free.
  if (block.spilled || !block.sealed || !block.disk_valid) return;
  uint64_t hot = 0;
  for (StateTable* t : tables_) hot += t->hot_bytes_;
  if (hot <= config_.mem_budget) return;
  block.rows.clear();
  block.rows.shrink_to_fit();
  block.index.clear();
  block.spilled = true;
  table->hot_bytes_ -= block.bytes;
  ++evictions_;
}

void StateStore::ReleaseBlockFile(uint64_t block_id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (const auto& [ckpt, refs] : checkpoint_refs_) {
    if (refs.count(block_id) > 0) {
      // A retained checkpoint still references the file; unlink is
      // deferred until that checkpoint is pruned (OnCheckpoint).
      pending_unlink_.insert(block_id);
      return;
    }
  }
  ::unlink(BlockFilePath(config_.spill_dir, block_id).c_str());
}

void StateStore::ClaimRestoredFile(uint64_t block_id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  restored_claims_.insert(block_id);
}

void StateStore::PinRestoredClaims(uint64_t checkpoint_id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (restored_claims_.empty()) return;
  // The restored image is the only durable fallback until the next
  // checkpoint lands: treat it like any retained checkpoint so a restored
  // block that expires defers unlink (ReleaseBlockFile) instead of deleting
  // a file that image still references. OnCheckpoint's keep-N prune
  // releases the pin on the same schedule as the on-disk image itself.
  checkpoint_refs_[checkpoint_id].insert(restored_claims_.begin(),
                                         restored_claims_.end());
}

void StateStore::SaveManifest(StateWriter& w) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  w.U64(next_block_id_);
}

void StateStore::RestoreManifest(StateReader& r) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint64_t next = r.U64();
  if (r.ok()) next_block_id_ = next;
}

void StateStore::OnCheckpoint(uint64_t checkpoint_id, int keep) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::set<uint64_t>& refs = checkpoint_refs_[checkpoint_id];
  refs.clear();
  for (StateTable* table : tables_) {
    for (const auto& block : table->blocks_) {
      if (block->spilled) refs.insert(block->id);
    }
  }
  if (keep > 0) {
    while (checkpoint_refs_.size() > static_cast<size_t>(keep)) {
      checkpoint_refs_.erase(checkpoint_refs_.begin());
    }
  }
  for (auto it = pending_unlink_.begin(); it != pending_unlink_.end();) {
    bool referenced = false;
    for (const auto& [ckpt, ids] : checkpoint_refs_) {
      if (ids.count(*it) > 0) {
        referenced = true;
        break;
      }
    }
    if (referenced) {
      ++it;
    } else {
      ::unlink(BlockFilePath(config_.spill_dir, *it).c_str());
      it = pending_unlink_.erase(it);
    }
  }
}

void StateStore::GcOrphanFiles() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (config_.spill_dir.empty()) return;
  std::vector<std::pair<uint64_t, std::string>> files;
  if (!ListBlockFiles(config_.spill_dir, &files).ok()) return;
  for (const auto& [id, path] : files) {
    if (restored_claims_.count(id) == 0) ::unlink(path.c_str());
  }
  restored_claims_.clear();
}

StorageStats StateStore::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  StorageStats s;
  for (const StateTable* table : tables_) {
    s.hot_bytes += table->hot_bytes_;
    s.spilled_bytes += table->spilled_bytes();
    s.blocks_spilled += table->num_spilled_blocks();
    s.blocks_resident += table->blocks_.size() - table->num_spilled_blocks();
    s.index_probes += table->index_probes_;
    s.index_hits += table->index_hits_;
  }
  s.spills = spills_;
  s.loads = loads_;
  s.slice_reads = slice_reads_;
  s.evictions = evictions_;
  s.spill_failures = spill_failures_;
  s.shed_rows = shed_rows_;
  s.purged_blocks = purged_blocks_;
  s.stalls = stalls_;
  s.stall_time = stall_time_;
  return s;
}

void StorageStats::PublishTo(MetricsRegistry* registry,
                             const std::string& prefix) const {
  registry->SetGauge(prefix + ".hot_bytes", static_cast<double>(hot_bytes));
  registry->SetGauge(prefix + ".spilled_bytes",
                     static_cast<double>(spilled_bytes));
  registry->SetGauge(prefix + ".blocks_resident",
                     static_cast<double>(blocks_resident));
  registry->SetGauge(prefix + ".blocks_spilled",
                     static_cast<double>(blocks_spilled));
  registry->SetCounter(prefix + ".spills", spills);
  registry->SetCounter(prefix + ".loads", loads);
  registry->SetCounter(prefix + ".slice_reads", slice_reads);
  registry->SetCounter(prefix + ".evictions", evictions);
  registry->SetCounter(prefix + ".spill_failures", spill_failures);
  registry->SetCounter(prefix + ".shed_rows", shed_rows);
  registry->SetCounter(prefix + ".purged_blocks", purged_blocks);
  registry->SetCounter(prefix + ".index_probes", index_probes);
  registry->SetCounter(prefix + ".index_hits", index_hits);
  registry->SetCounter(prefix + ".stalls", stalls);
  registry->SetCounter(prefix + ".stall_time_us",
                       static_cast<uint64_t>(stall_time));
}

}  // namespace dsms

#ifndef DSMS_STORAGE_STATE_STORE_H_
#define DSMS_STORAGE_STATE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/time.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "sim/fault_injector.h"
#include "storage/block_file.h"

namespace dsms {

class MetricsRegistry;
class Operator;
class StateReader;
class StateStore;
class StateWriter;

/// Configuration of the spillable state tier, set from the plan DSL's
/// `state mem_budget=… spill_dir=… granularity=…` statement.
struct StorageConfig {
  /// Hot-tier budget in bytes across every table of the graph; 0 means
  /// unlimited (nothing is ever spilled, the store only partitions and
  /// indexes).
  uint64_t mem_budget = 0;
  /// Directory for spilled block files; required when mem_budget > 0.
  std::string spill_dir;
  /// Width of one time bucket: state tuples land in the block covering
  /// [t, t + granularity) so expiry and eviction work on whole blocks.
  Duration granularity = kSecond;
  /// What to do when a spill write fails (disk_fail fault): kShedOldest
  /// drops the victim block's rows, anything else keeps the block hot over
  /// budget (degrading to in-memory until the disk heals).
  OverloadPolicy overload = OverloadPolicy::kBlockSource;
};

/// Counters and gauges of the storage tier, aggregated across every table
/// registered with a store. Published as storage.* through MetricsRegistry.
struct StorageStats {
  // Gauges (current residency).
  uint64_t hot_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t blocks_resident = 0;
  uint64_t blocks_spilled = 0;
  // Counters (lifetime).
  uint64_t spills = 0;          // block files written
  uint64_t loads = 0;           // whole block files read back
  uint64_t slice_reads = 0;     // keyed reads of one slice of a spilled block
  uint64_t evictions = 0;       // blocks dropped from the hot tier
  uint64_t spill_failures = 0;  // disk_fail write failures absorbed
  uint64_t shed_rows = 0;       // rows dropped by kShedOldest on disk_fail
  uint64_t purged_blocks = 0;   // whole-block IWP expiries
  uint64_t index_probes = 0;    // keyed probes answered by a hash index
  uint64_t index_hits = 0;      // rows the indexes delivered
  uint64_t stalls = 0;          // disk_stall penalties charged
  Duration stall_time = 0;      // total virtual time lost to disk stalls

  void PublishTo(MetricsRegistry* registry, const std::string& prefix) const;
};

/// Time-partitioned state container for one join input: an ordered list of
/// blocks, one per `[t, t + granularity)` bucket, each holding the bucket's
/// tuples in insertion order plus (when a key field is declared) a per-block
/// hash index from key hash to row positions.
///
/// Only the newest block (the tail) accepts appends; older blocks are sealed
/// and immutable, which is what makes them safely spillable: a sealed
/// block's rows never change, so its on-disk image stays valid across any
/// number of load/evict cycles. Expiry advances a live prefix inside the
/// oldest block and drops/unlinks whole blocks below the frontier — the
/// O(1) IWP purge the time partitioning exists for.
///
/// A table works standalone (never spills, no budget) until Bind() attaches
/// it to a StateStore; the operators use it unconditionally so the indexed
/// probe path is exercised even in pure in-memory mode.
///
/// Key contract: when a key field is declared, keyed probes return exactly
/// the in-band rows whose key equals the probe key (hash collisions are
/// re-verified here), in insertion order — byte-identical emission order to
/// the linear scan they replace. The caller's predicate must therefore
/// imply key equality, which is what set_equi_fields declares.
class StateTable {
 public:
  StateTable() = default;
  ~StateTable();

  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;

  /// Display name used in trace/debug output ("L", "R", "in2"...).
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  /// Declares the equi-join key field; -1 (default) disables indexing.
  /// Must be set before the first Append.
  void set_key_field(int field);
  int key_field() const { return key_field_; }

  /// Attaches the table to a store (nullptr detaches: hot-only mode) and
  /// names the owning operator for trace events and fault accounting.
  void Bind(StateStore* store, Operator* owner);

  /// Establishes the virtual time of the running operator step, used for
  /// fault windows and trace stamps of any disk work the step triggers.
  void BeginStep(Timestamp now) { now_ = now; }

  /// Virtual time lost to injected disk stalls since the last call; the
  /// operator adds it to StepResult::storage_stall so the executor charges
  /// it like any other step cost.
  Duration TakeStall();

  /// Appends one tuple: opens a new tail block when the tuple's bucket is
  /// past the current tail (sealing the tail), otherwise extends the tail
  /// (late tuples widen the tail's timestamp range instead of reopening a
  /// sealed block).
  void Append(Tuple tuple);

  /// Invokes `fn` for every live row with timestamp in [lo, hi], in
  /// insertion order. With `key` non-null and a declared key field, only
  /// rows whose key equals `*key` are delivered: resident blocks answer
  /// from their hash indexes, and a spilled block answers by reading only
  /// the key's slice of its file into a buffer owned by this call (the
  /// block stays spilled; counted as a slice read, traced, and
  /// stall-charged once per block under an active disk_stall fault).
  /// Unkeyed probes load overlapping spilled blocks back whole (counted,
  /// traced, stall-charged), and — when the store is over budget — drop
  /// them again as soon as their rows have been delivered (evict-behind:
  /// the file is still valid, so the drop is free), keeping the peak
  /// residency of a band that spans the whole window near the budget
  /// instead of the window size.
  /// Row lifetime: a delivered row stays valid for the duration of the
  /// `fn` callback, including nested probes on sibling tables (multi-way
  /// join) — eviction never touches the block currently being delivered or
  /// any block another in-flight probe is pointing at (blocks already
  /// resident before this probe are only moved by Append / Expire /
  /// MaybeEvict, never mid-probe), and slice rows live until this call
  /// returns.
  void Probe(Timestamp lo, Timestamp hi, const Value* key,
             const std::function<void(const Tuple&)>& fn);

  /// Expires every row with timestamp < cutoff under prefix-stop semantics
  /// (stop at the first live row, like the deque pop_front loop this
  /// replaces): whole blocks below the cutoff are dropped in O(1) —
  /// spilled ones by unlink, without loading them — and a partially expired
  /// hot block advances its live prefix. A partially expired *spilled*
  /// block is left untouched: its dead prefix provably fails every future
  /// band check, so it costs nothing until the whole block expires.
  void Expire(Timestamp cutoff);

  /// Asks the bound store to enforce the memory budget (no-op standalone).
  /// Only called from operator safe points — never while a probe holds row
  /// pointers.
  void MaybeEvict();

  /// Live (unexpired) rows across all blocks, resident or spilled.
  size_t size() const { return live_rows_; }
  /// Estimated bytes of resident rows.
  uint64_t hot_bytes() const { return hot_bytes_; }

  size_t num_blocks() const { return blocks_.size(); }
  size_t num_spilled_blocks() const;
  uint64_t spilled_bytes() const;

  uint64_t index_probes() const { return index_probes_; }
  uint64_t index_hits() const { return index_hits_; }

  /// Serializes the table: sealed spilled blocks as descriptors referencing
  /// their immutable file by id (checkpoint size O(hot state)); resident
  /// blocks inline.
  void SaveState(StateWriter& w) const;

  /// Inverse of SaveState. Spilled descriptors re-register their block file
  /// with the bound store (claiming it against orphan GC); inline blocks
  /// are restored hot with no disk image (any stale file for them is GC'd).
  void LoadState(StateReader& r);

  /// Drops all state (hot rows and disk references; files are released to
  /// the store for unlink).
  void Clear();

 private:
  friend class StateStore;

  struct Block {
    uint64_t id = 0;
    Timestamp bucket_start = 0;
    Timestamp bucket_end = 0;
    Timestamp min_ts = kMaxTimestamp;
    Timestamp max_ts = kMinTimestamp;
    /// Full insertion sequence of the bucket (empty while spilled).
    std::vector<Tuple> rows;
    /// Rows at the front that are logically expired (metadata, kept out of
    /// the immutable file).
    uint32_t expired_prefix = 0;
    /// Row count / byte estimate, valid even while spilled.
    uint32_t nrows = 0;
    uint64_t bytes = 0;
    bool sealed = false;
    /// Rows are on disk only.
    bool spilled = false;
    /// An up-to-date immutable file exists for this block (a spilled block
    /// always has one; a resident block keeps it after a load so a later
    /// eviction is a free drop, not a rewrite).
    bool disk_valid = false;
    /// key hash -> row positions, insertion order (resident + keyed only).
    std::map<uint64_t, std::vector<uint32_t>> index;
  };

  Block* tail() { return blocks_.empty() ? nullptr : blocks_.back().get(); }
  void IndexRow(Block& block, uint32_t row);
  void BuildIndex(Block& block);
  /// Ensures `block` is resident, loading its file if needed.
  void EnsureResident(Block& block);
  /// Releases a fully expired block (hot drop or store unlink).
  void PurgeBlock(Block& block);

  std::string name_;
  int key_field_ = -1;
  StateStore* store_ = nullptr;
  Operator* owner_ = nullptr;
  Timestamp now_ = 0;
  Duration pending_stall_ = 0;
  std::vector<std::unique_ptr<Block>> blocks_;
  /// Block id allocator for standalone (unbound) tables; bound tables draw
  /// graph-unique ids from the store.
  uint64_t local_next_block_id_ = 1;
  size_t live_rows_ = 0;
  uint64_t hot_bytes_ = 0;
  uint64_t index_probes_ = 0;
  uint64_t index_hits_ = 0;
};

/// Owner of the graph's spillable state: allocates block ids, enforces the
/// global memory budget by evicting the sealed blocks farthest below the
/// could-result-in frontier (smallest max timestamp — exactly the blocks
/// the IWP purge will drop first anyway), arbitrates disk faults, and ties
/// spilled blocks into the checkpoint lifecycle (manifest, per-checkpoint
/// references, deferred unlink, orphan GC on restore).
///
/// Spilled blocks are read through one bounded, least-recently-used cache
/// of open block files (`BlockFileReader`: descriptor plus verified header
/// and directory), so a keyed probe of a block read before costs no
/// `open` and no directory CRC. An entry is closed when its block's file
/// is released, by `GcOrphanFiles`, on eviction from the cache and with
/// the store.
///
/// Owned by the QueryGraph (declared before the operators so it outlives
/// their tables). All entry points take one recursive mutex, so the
/// parallel sharded executor can step bound operators concurrently; in
/// deterministic and scalar modes the lock is uncontended.
class StateStore {
 public:
  /// Most block files held open at once: 256, or a quarter of the soft
  /// RLIMIT_NOFILE when that is smaller (never below 1).
  static constexpr size_t kMaxOpenBlocks = 256;

  explicit StateStore(StorageConfig config);
  ~StateStore() = default;

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  const StorageConfig& config() const { return config_; }
  /// The open-block cache's bound on this host (see kMaxOpenBlocks).
  size_t max_open_blocks() const { return max_open_blocks_; }
  bool spill_enabled() const {
    return config_.mem_budget > 0 && !config_.spill_dir.empty();
  }

  /// Creates the spill directory. Call once before execution.
  Status Init();

  /// Scoped lock for compound operations that hold row pointers across
  /// several table calls (the multi-way join's recursive probe). Recursive,
  /// so the nested per-call locking stays cheap and safe.
  class Guard {
   public:
    explicit Guard(StateStore* store) : store_(store) {
      if (store_ != nullptr) store_->mu_.lock();
    }
    ~Guard() {
      if (store_ != nullptr) store_->mu_.unlock();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    StateStore* store_;
  };

  /// Arms a disk fault (kDiskStall / kDiskFail). Routed here by
  /// Simulation::InjectFault; one fault at a time, later calls replace.
  void ArmFault(const FaultSpec& spec, uint64_t run_seed);

  /// How often the armed disk fault actually fired.
  uint64_t fault_events() const { return fault_events_; }

  /// Aggregated stats across the store and every registered table.
  StorageStats stats() const;

  // --- checkpoint integration ---

  /// Store-level manifest (block id allocator) riding in
  /// CheckpointImage::storage_blob next to the tables' own sections.
  void SaveManifest(StateWriter& w) const;
  void RestoreManifest(StateReader& r);

  /// Records that checkpoint `checkpoint_id` references every block that is
  /// spilled right now, forgets references held by checkpoints pruned by
  /// keep-N, and unlinks any deferred file no retained checkpoint needs
  /// anymore. Call after the checkpoint file is durably written.
  void OnCheckpoint(uint64_t checkpoint_id, int keep);

  /// Unlinks every block file in the spill directory that no restored table
  /// claimed. Call once after RestoreGraph (also on a fresh start, where it
  /// clears stale files from a previous incarnation).
  void GcOrphanFiles();

  /// Pins every file claimed by LoadState since the last GcOrphanFiles under
  /// `checkpoint_id` (the restored image's id) in the per-checkpoint
  /// reference map. Until keep-N pruning drops that entry, a restored block
  /// that fully expires defers its unlink instead of deleting a file the
  /// restored image still references — without this, a second crash before
  /// the next durable checkpoint would restore descriptors pointing at
  /// missing files and fail-stop on every restart. Call after the LoadState
  /// pass and before GcOrphanFiles (which clears the claim set).
  void PinRestoredClaims(uint64_t checkpoint_id);

 private:
  friend class StateTable;

  void Register(StateTable* table);
  void Unregister(StateTable* table);
  uint64_t AllocateBlockId() { return next_block_id_++; }

  /// Evicts sealed resident blocks (smallest max_ts first, block id as the
  /// deterministic tie-break) until hot bytes fit the budget. Stall/fault
  /// penalties are charged to `caller`, the table whose append triggered
  /// the pass.
  void EnforceBudget(StateTable* caller);

  /// Writes `block` of `table` out (or drops it when its file is already
  /// valid). Returns false when a disk_fail fault swallowed the write and
  /// the policy kept the block hot. Fault windows and stall penalties are
  /// evaluated against `caller` — the table whose operator is actually
  /// stepping — not the victim: the victim's now_/pending_stall_ belong to
  /// its own operator's step, which may be running concurrently on another
  /// shard without the store lock.
  bool EvictBlock(StateTable* caller, StateTable* table,
                  StateTable::Block& block);

  /// Evict-behind for a wide unkeyed probe: `block` was loaded back by the
  /// running probe of `table` and its rows have all been delivered. When the
  /// store is over budget, drop it again — its file is still valid, so this
  /// is a free drop, never a write (and thus never a disk fault). Keeps a
  /// probe's peak residency near the budget instead of the full window.
  void EvictBehind(StateTable* table, StateTable::Block& block);

  /// Loads `block` of `table` back into memory. Fail-stop on I/O or CRC
  /// errors.
  void LoadBlock(StateTable* table, StateTable::Block& block);

  /// Reads the rows of `key_hash` from spilled `block` of `table` into
  /// `rows`, leaving the block spilled. Fail-stop on I/O or CRC errors.
  void ReadSlice(StateTable* table, const StateTable::Block& block,
                 uint64_t key_hash, std::vector<BlockSliceRow>* rows);

  /// The cached reader of spilled block `block_id`, opened (and made most
  /// recently used) on demand; the least recently used entry is closed
  /// when the cache is full. Fail-stop when the file cannot be opened or
  /// its header and directory fail their check.
  BlockFileReader& OpenBlock(uint64_t block_id);
  /// Closes the cached reader of `block_id`, if any.
  void CloseBlock(uint64_t block_id);

  /// Stall charge and trace event of one block read (whole or one slice).
  void NoteBlockRead(StateTable* table, uint64_t block_id, size_t rows);

  /// A spilled block fully expired (or was dropped): close its cached
  /// reader, then unlink its file now, or defer while a retained checkpoint
  /// still references it.
  void ReleaseBlockFile(uint64_t block_id);

  /// LoadState descriptors claim their files against the restore-time GC.
  void ClaimRestoredFile(uint64_t block_id);

  /// True and counted when the armed fault of `kind` fires at `now`.
  bool FaultFires(FaultKind kind, Timestamp now);
  /// Adds the armed stall penalty to `table` when a disk_stall is active.
  void ChargeStallIfFaulted(StateTable* table);

  StorageConfig config_;
  mutable std::recursive_mutex mu_;
  std::vector<StateTable*> tables_;
  uint64_t next_block_id_ = 1;

  FaultSpec fault_;
  Pcg32 fault_rng_;
  uint64_t fault_events_ = 0;

  // Lifetime counters for work done at store level.
  uint64_t spills_ = 0;
  uint64_t loads_ = 0;
  uint64_t slice_reads_ = 0;
  uint64_t evictions_ = 0;
  uint64_t spill_failures_ = 0;
  uint64_t shed_rows_ = 0;
  uint64_t purged_blocks_ = 0;
  uint64_t stalls_ = 0;
  Duration stall_time_ = 0;

  /// checkpoint id -> spilled block ids it references.
  std::map<uint64_t, std::set<uint64_t>> checkpoint_refs_;
  /// Dead blocks whose files are retained for a referencing checkpoint.
  std::set<uint64_t> pending_unlink_;
  /// Files claimed by LoadState since the last GcOrphanFiles().
  std::set<uint64_t> restored_claims_;

  /// Open-block cache: readers most recently used first, and their
  /// positions by block id. Its header and directory copies sit outside
  /// mem_budget.
  using OpenBlockList =
      std::list<std::pair<uint64_t, std::unique_ptr<BlockFileReader>>>;
  OpenBlockList open_blocks_;
  std::unordered_map<uint64_t, OpenBlockList::iterator> open_block_index_;
  size_t max_open_blocks_;
};

/// Deterministic per-tuple byte estimate used for budget accounting: a pure
/// function of the tuple's content, so eviction decisions replay
/// identically across runs and after recovery.
uint64_t EstimateTupleBytes(const Tuple& tuple);

}  // namespace dsms

#endif  // DSMS_STORAGE_STATE_STORE_H_

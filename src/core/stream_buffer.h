#ifndef DSMS_CORE_STREAM_BUFFER_H_
#define DSMS_CORE_STREAM_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/ready_tracker.h"
#include "core/tuple.h"

namespace dsms {

class StreamBuffer;

/// Producer-side interception for cross-shard arcs (parallel sharded
/// execution). When a diverter is installed, Push() offers the tuple to it
/// BEFORE touching any buffer state; a diverted tuple leaves the producer
/// thread without mutating the consumer shard's buffer, and the consumer
/// shard later applies full push bookkeeping via DeliverDiverted().
class BufferDiverter {
 public:
  virtual ~BufferDiverter() = default;
  /// Returns true when the tuple was taken (the push is complete from the
  /// producer's point of view); false lets the push proceed locally.
  virtual bool Divert(StreamBuffer* buffer, Tuple&& tuple) = 0;
};

/// Observer notified on every enqueue/dequeue of a StreamBuffer. The
/// simulation attaches one global listener (metrics/QueueSizeTracker) to
/// every arc of a query graph so that "peak total queue size" (Figure 8) can
/// be maintained incrementally.
class BufferListener {
 public:
  virtual ~BufferListener() = default;

  /// Consulted before a tuple is committed to the buffer; returning false
  /// vetoes the push (the tuple is discarded, no OnPush fires, counters stay
  /// untouched). Enforcement listeners (metrics/OrderValidator with a
  /// kDropLate/kQuarantine policy) use this to stop order-violating tuples
  /// at the arc where the violation first materializes. Default: allow.
  virtual bool OnBeforePush(const StreamBuffer& buffer, const Tuple& tuple) {
    (void)buffer;
    (void)tuple;
    return true;
  }

  virtual void OnPush(const StreamBuffer& buffer, const Tuple& tuple) = 0;
  virtual void OnPop(const StreamBuffer& buffer, const Tuple& tuple) = 0;
};

/// Occupancy counter with one writer but cross-thread readers. In parallel
/// sharded execution the consumer shard applies all push/pop bookkeeping on
/// a cross-shard arc while the producer shard's yield check reads empty() on
/// the same buffer; a stale read only delays the producer's Forward by one
/// superstep, but the load itself must be well-defined. Only the consumer
/// shard ever mutates, so writes are a plain load+store pair and reads are
/// relaxed loads — identical codegen to a raw size_t on x86, zero cost for
/// the single-threaded executors.
class SingleWriterCount {
 public:
  operator size_t() const { return value_.load(std::memory_order_relaxed); }
  SingleWriterCount& operator=(size_t n) {
    value_.store(n, std::memory_order_relaxed);
    return *this;
  }
  SingleWriterCount& operator++() { return *this = *this + 1; }
  SingleWriterCount& operator--() { return *this = *this - 1; }
  size_t operator++(int) {
    const size_t n = *this;
    *this = n + 1;
    return n;
  }

 private:
  std::atomic<size_t> value_{0};
};

/// What a bounded StreamBuffer does when a push would exceed its capacity
/// limit (Section "Failure model" of DESIGN.md).
enum class OverloadPolicy {
  /// Grow without bound — the paper's behaviour (experiments measure how
  /// large buffers get under idle-waiting). The default.
  kGrow = 0,
  /// Producer-side backpressure: the buffer reports BlocksProducer() so
  /// cooperating producers (the simulation's input wrappers) defer delivery
  /// until space frees. Non-cooperating producers (operator emits mid-step,
  /// which cannot block in a single-threaded engine) fall back to growing.
  kBlockSource = 1,
  /// Load shedding: discard the oldest queued tuple to make room (counted in
  /// shed_tuples). Dropping tuples never reorders a stream, so downstream
  /// order invariants survive.
  kShedOldest = 2,
};

const char* OverloadPolicyToString(OverloadPolicy policy);

/// A FIFO arc of the query graph (Section 3: "our directed arc from Qi to Qj
/// represents a buffer"). Exactly one producer appends at the tail and one
/// consumer removes from the front. Unbounded by default (the experiments
/// measure how large buffers grow under idle-waiting); set_capacity_limit
/// installs a bound with a pluggable OverloadPolicy so one runaway source
/// cannot OOM the process.
///
/// Storage is a power-of-two ring of Tuples that doubles when full; once the
/// ring has grown to the workload's high-water mark, steady-state Push/Pop
/// of small tuples touches no allocator (unlike the previous std::deque,
/// which recycled chunk allocations continuously). Listener dispatch is
/// skipped entirely when no listeners are attached.
class StreamBuffer {
 public:
  explicit StreamBuffer(std::string name);

  StreamBuffer(const StreamBuffer&) = delete;
  StreamBuffer& operator=(const StreamBuffer&) = delete;

  const std::string& name() const { return name_; }

  /// Identifier assigned by the owning QueryGraph (index of the arc);
  /// -1 for free-standing buffers created in tests.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  /// The consumer-side head. Requires !empty().
  const Tuple& Front() const {
    DSMS_CHECK_GT(count_, 0u);
    return slots_[head_];
  }

  /// Appends to the tail (production). Defined inline: this and Pop() are
  /// the per-tuple cost of every arc traversal. The lvalue overload copy-
  /// assigns straight into the ring slot (no intermediate Tuple), the rvalue
  /// overload move-assigns. Returns false when an enforcement listener
  /// vetoed the push (the tuple was discarded; see BufferListener).
  bool Push(const Tuple& tuple) { return PushImpl(tuple); }
  bool Push(Tuple&& tuple) { return PushImpl(std::move(tuple)); }

  /// Appends a whole batch, consuming `tuples`. Counter and listener
  /// bookkeeping is identical to pushing each tuple individually, but
  /// capacity is reserved once and the ready-tracker is notified once.
  void PushAll(std::vector<Tuple> tuples);

  /// Removes and returns the head (consumption). Requires !empty().
  Tuple Pop() {
    DSMS_CHECK_GT(count_, 0u);
    Tuple tuple = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    data_in_queue_ -= tuple.is_data() ? 1u : 0u;
    if (tracker_ != nullptr) {
      if (count_ == 0) {
        tracker_->NoteDrained(tracker_consumer_);
      } else {
        tracker_->NoteFrontChanged(tracker_consumer_);
      }
    }
    if (!listeners_.empty()) NotifyPop(tuple);
    return tuple;
  }

  /// Moves every queued tuple into `*out` (appending, FIFO order) and
  /// returns how many were drained. Bookkeeping matches popping each tuple
  /// individually. `out` may be nullptr to discard the tuples.
  size_t DrainInto(std::vector<Tuple>* out);

  /// Lifetime counters, split by tuple kind.
  uint64_t total_pushed() const { return total_pushed_; }
  uint64_t data_pushed() const { return data_pushed_; }
  uint64_t punctuation_pushed() const { return total_pushed_ - data_pushed_; }

  // --- bounded capacity / overload (robustness; see OverloadPolicy) ---

  /// Installs a capacity bound. `limit` = 0 removes the bound (unbounded,
  /// the default). With kShedOldest the buffer never holds more than `limit`
  /// tuples; with kBlockSource it reports BlocksProducer() at the limit so
  /// cooperating producers defer (non-cooperating pushes still grow).
  void set_capacity_limit(size_t limit, OverloadPolicy policy) {
    capacity_limit_ = limit;
    overload_policy_ = limit == 0 ? OverloadPolicy::kGrow : policy;
  }
  size_t capacity_limit() const { return capacity_limit_; }
  OverloadPolicy overload_policy() const { return overload_policy_; }

  /// True when a kBlockSource-bounded buffer is at capacity: a cooperating
  /// producer (the simulation's input wrapper) should defer its delivery and
  /// retry later rather than push.
  bool BlocksProducer() const {
    return capacity_limit_ != 0 &&
           overload_policy_ == OverloadPolicy::kBlockSource &&
           count_ >= capacity_limit_;
  }

  /// Tuples discarded by the kShedOldest overload policy.
  uint64_t shed_tuples() const { return shed_tuples_; }
  /// Pushes vetoed by an enforcement listener (OnBeforePush returned false).
  uint64_t vetoed_pushes() const { return vetoed_pushes_; }
  /// Largest occupancy this buffer ever reached (validates overload
  /// policies; also the per-arc ingredient of the Figure 8 memory runs).
  size_t high_water_mark() const { return high_water_; }

  /// Number of data tuples currently queued (punctuation excluded).
  size_t data_size() const { return data_in_queue_; }

  /// Replaces ALL registered listeners with `listener` (nullptr detaches
  /// everything). Deliberately loud about clobbering: the old name
  /// `set_listener` read like a harmless setter but silently dropped
  /// listeners registered via AddListener.
  void ReplaceListeners(BufferListener* listener) {
    listeners_.clear();
    if (listener != nullptr) listeners_.push_back(listener);
  }

  /// Registers an additional listener (metrics and validators compose).
  void AddListener(BufferListener* listener);

  size_t num_listeners() const { return listeners_.size(); }

  /// Wires this buffer to the scheduling tracker of the executor that owns
  /// the graph; `consumer` is the operator id that pops from this buffer.
  /// Pass nullptr to detach. Not owned.
  void set_ready_tracker(ReadyTracker* tracker, int consumer) {
    tracker_ = tracker;
    tracker_consumer_ = consumer;
  }
  ReadyTracker* ready_tracker() const { return tracker_; }

  /// Current ring capacity (tests of the growth policy).
  size_t capacity() const { return slots_.size(); }

  // --- checkpoint support (recovery/) ---

  /// Copies the queued tuples into `*out` in FIFO order without consuming
  /// them (listeners and the ready-tracker see nothing). Counters are read
  /// through the existing accessors.
  void SnapshotTuples(std::vector<Tuple>* out) const;

  // --- parallel sharded execution support (exec/sharded_executor) ---

  /// Installs (or with nullptr removes) a cross-shard diverter. Consulted at
  /// the top of Push before any counter/ring/listener work, so a producer on
  /// a foreign shard thread never mutates this buffer's state.
  void set_diverter(BufferDiverter* diverter) { diverter_ = diverter; }
  BufferDiverter* diverter() const { return diverter_; }

  /// Consumer-side completion of a diverted push: identical bookkeeping to
  /// Push (veto, overload policy, counters, tracker, listeners) except the
  /// diverter is not consulted again. Only the consumer shard's thread may
  /// call this.
  bool DeliverDiverted(Tuple&& tuple) { return PushLocal(std::move(tuple)); }

  /// When set, listener dispatch (OnBeforePush/OnPush/OnPop) is serialized
  /// under this mutex. Parallel sharded mode shares global listeners
  /// (QueueSizeTracker, OrderValidator) across shard threads; everything
  /// else about the buffer stays single-threaded per consumer shard.
  void set_notify_mutex(std::mutex* mutex) { notify_mutex_ = mutex; }

  /// Restores checkpointed contents and lifetime counters. Requires an
  /// empty buffer with no listeners or tracker attached (restore runs
  /// before the executor and metrics wiring exist), so no notifications are
  /// replayed for the restored tuples. Validates the counters (a corrupt
  /// image must not underflow punctuation_pushed()) and clamps the restored
  /// high-water mark to at least the restored occupancy.
  void RestoreSnapshot(std::vector<Tuple> tuples, uint64_t total_pushed,
                       uint64_t data_pushed, uint64_t shed_tuples,
                       uint64_t vetoed_pushes, size_t high_water);

 private:
  template <typename T>
  bool PushImpl(T&& tuple) {
    if (diverter_ != nullptr) {
      // A declining diverter (returns false) must leave the tuple intact so
      // the push can complete locally.
      Tuple offered(std::forward<T>(tuple));
      if (diverter_->Divert(this, std::move(offered))) return true;
      return PushLocal(std::move(offered));
    }
    return PushLocal(std::forward<T>(tuple));
  }

  template <typename T>
  bool PushLocal(T&& tuple) {
    if (!listeners_.empty() && !AllowPush(tuple)) {
      ++vetoed_pushes_;
      return false;
    }
    if (capacity_limit_ != 0 && count_ >= capacity_limit_ &&
        overload_policy_ == OverloadPolicy::kShedOldest) {
      ShedHead();
    }
    const bool was_empty = (count_ == 0);
    const bool is_data = tuple.is_data();
    ++total_pushed_;
    data_pushed_ += is_data;
    data_in_queue_ += is_data;
    if (count_ == capacity_) EnsureCapacity(count_ + 1);
    const size_t idx = (head_ + count_) & mask_;
    slots_[idx] = std::forward<T>(tuple);
    ++count_;
    if (count_ > high_water_) high_water_ = count_;
    if (tracker_ != nullptr && was_empty) {
      tracker_->NoteFilled(tracker_consumer_);
    }
    if (!listeners_.empty()) NotifyPush(slots_[idx]);
    return true;
  }

  void EnsureCapacity(size_t needed);
  Tuple PopInternal();
  /// Discards the head tuple to make room (kShedOldest). Listeners see an
  /// OnPop so occupancy metrics stay consistent.
  void ShedHead();
  bool AllowPush(const Tuple& tuple);
  void NotifyPush(const Tuple& tuple);
  void NotifyPop(const Tuple& tuple);

  std::string name_;
  int id_ = -1;
  /// Ring storage: `count_` live tuples starting at `head_`, capacity is
  /// always zero or a power of two. `capacity_`/`mask_` cache slots_.size()
  /// and slots_.size()-1 for the hot path (mask_ is 0 while empty and only
  /// dereferenced after EnsureCapacity has grown the ring).
  std::vector<Tuple> slots_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t head_ = 0;
  SingleWriterCount count_;
  size_t data_in_queue_ = 0;
  uint64_t total_pushed_ = 0;
  uint64_t data_pushed_ = 0;
  size_t capacity_limit_ = 0;  // 0 = unbounded
  OverloadPolicy overload_policy_ = OverloadPolicy::kGrow;
  uint64_t shed_tuples_ = 0;
  uint64_t vetoed_pushes_ = 0;
  size_t high_water_ = 0;
  std::vector<BufferListener*> listeners_;
  ReadyTracker* tracker_ = nullptr;
  int tracker_consumer_ = -1;
  BufferDiverter* diverter_ = nullptr;
  std::mutex* notify_mutex_ = nullptr;  // serializes listener dispatch only
};

}  // namespace dsms

#endif  // DSMS_CORE_STREAM_BUFFER_H_

#include "core/stream_buffer.h"

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dsms {

namespace {
constexpr size_t kInitialCapacity = 16;
}  // namespace

const char* OverloadPolicyToString(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kGrow:
      return "grow";
    case OverloadPolicy::kBlockSource:
      return "block";
    case OverloadPolicy::kShedOldest:
      return "shed";
  }
  return "unknown";
}

StreamBuffer::StreamBuffer(std::string name) : name_(std::move(name)) {}

void StreamBuffer::AddListener(BufferListener* listener) {
  DSMS_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

namespace {
/// Locks `mutex` when non-null; listener dispatch in parallel sharded mode
/// crosses shard threads, everything else on a buffer stays single-threaded.
class MaybeLock {
 public:
  explicit MaybeLock(std::mutex* mutex) : mutex_(mutex) {
    if (mutex_ != nullptr) mutex_->lock();
  }
  ~MaybeLock() {
    if (mutex_ != nullptr) mutex_->unlock();
  }

 private:
  std::mutex* mutex_;
};
}  // namespace

bool StreamBuffer::AllowPush(const Tuple& tuple) {
  MaybeLock lock(notify_mutex_);
  for (BufferListener* listener : listeners_) {
    if (!listener->OnBeforePush(*this, tuple)) return false;
  }
  return true;
}

void StreamBuffer::ShedHead() {
  DSMS_CHECK_GT(count_, 0u);
  Tuple shed = PopInternal();
  ++shed_tuples_;
  // The head changed; scheduling state must not go stale (the consumer may
  // cache decisions keyed on the front tuple).
  if (tracker_ != nullptr) {
    if (count_ == 0) {
      tracker_->NoteDrained(tracker_consumer_);
    } else {
      tracker_->NoteFrontChanged(tracker_consumer_);
    }
  }
  if (!listeners_.empty()) NotifyPop(shed);
}

void StreamBuffer::NotifyPush(const Tuple& tuple) {
  MaybeLock lock(notify_mutex_);
  for (BufferListener* listener : listeners_) listener->OnPush(*this, tuple);
}

void StreamBuffer::NotifyPop(const Tuple& tuple) {
  MaybeLock lock(notify_mutex_);
  for (BufferListener* listener : listeners_) listener->OnPop(*this, tuple);
}

void StreamBuffer::EnsureCapacity(size_t needed) {
  if (needed <= capacity_) return;
  size_t capacity = capacity_ == 0 ? kInitialCapacity : capacity_;
  while (capacity < needed) capacity *= 2;
  std::vector<Tuple> fresh(capacity);
  for (size_t i = 0; i < count_; ++i) {
    fresh[i] = std::move(slots_[(head_ + i) & mask_]);
  }
  slots_ = std::move(fresh);
  capacity_ = capacity;
  mask_ = capacity - 1;
  head_ = 0;
}

void StreamBuffer::PushAll(std::vector<Tuple> tuples) {
  if (tuples.empty()) return;
  if (!listeners_.empty() || capacity_limit_ != 0 || diverter_ != nullptr) {
    // Veto hooks and overload policies are per-tuple decisions; route
    // through the scalar path (bookkeeping is identical, and the tracker
    // notification collapses to the same empty->non-empty transition).
    for (Tuple& tuple : tuples) PushImpl(std::move(tuple));
    return;
  }
  const bool was_empty = (count_ == 0);
  EnsureCapacity(count_ + tuples.size());
  for (Tuple& tuple : tuples) {
    const bool is_data = tuple.is_data();
    ++total_pushed_;
    data_pushed_ += is_data;
    data_in_queue_ += is_data;
    const size_t idx = (head_ + count_) & mask_;
    slots_[idx] = std::move(tuple);
    ++count_;
  }
  if (count_ > high_water_) high_water_ = count_;
  if (tracker_ != nullptr && was_empty) tracker_->NoteFilled(tracker_consumer_);
}

Tuple StreamBuffer::PopInternal() {
  Tuple tuple = std::move(slots_[head_]);
  head_ = (head_ + 1) & mask_;
  --count_;
  if (tuple.is_data()) {
    DSMS_CHECK_GT(data_in_queue_, 0u);
    --data_in_queue_;
  }
  return tuple;
}

void StreamBuffer::SnapshotTuples(std::vector<Tuple>* out) const {
  out->reserve(out->size() + count_);
  for (size_t i = 0; i < count_; ++i) {
    out->push_back(slots_[(head_ + i) & mask_]);
  }
}

void StreamBuffer::RestoreSnapshot(std::vector<Tuple> tuples,
                                   uint64_t total_pushed,
                                   uint64_t data_pushed,
                                   uint64_t shed_tuples,
                                   uint64_t vetoed_pushes,
                                   size_t high_water) {
  DSMS_CHECK_EQ(count_, 0u);
  DSMS_CHECK(listeners_.empty());
  DSMS_CHECK(tracker_ == nullptr);
  // A snapshot with data_pushed > total_pushed (corrupt or version-skewed
  // blob) would make punctuation_pushed() underflow to ~2^64; reject it here
  // rather than let the nonsense propagate into metrics and shed accounting.
  DSMS_CHECK_LE(data_pushed, total_pushed);
  DSMS_CHECK_LE(tuples.size(), total_pushed);
  EnsureCapacity(tuples.size());
  head_ = 0;
  data_in_queue_ = 0;  // recomputed from the restored contents, not additive
  for (Tuple& tuple : tuples) {
    data_in_queue_ += tuple.is_data() ? 1u : 0u;
    slots_[count_++] = std::move(tuple);
  }
  DSMS_CHECK_LE(data_in_queue_, data_pushed);
  total_pushed_ = total_pushed;
  data_pushed_ = data_pushed;
  shed_tuples_ = shed_tuples;
  vetoed_pushes_ = vetoed_pushes;
  // An image that under-reports the high-water mark (it can never be below
  // the restored occupancy) is clamped so shed/overload decisions stay sane.
  high_water_ = high_water >= count_ ? high_water : count_;
}

size_t StreamBuffer::DrainInto(std::vector<Tuple>* out) {
  const size_t drained = count_;
  if (drained == 0) return 0;
  if (out != nullptr) out->reserve(out->size() + drained);
  while (count_ > 0) {
    Tuple tuple = PopInternal();
    if (!listeners_.empty()) {
      for (BufferListener* listener : listeners_) {
        listener->OnPop(*this, tuple);
      }
    }
    if (out != nullptr) out->push_back(std::move(tuple));
  }
  DSMS_CHECK_EQ(data_in_queue_, 0u);
  if (tracker_ != nullptr) tracker_->NoteDrained(tracker_consumer_);
  return drained;
}

}  // namespace dsms

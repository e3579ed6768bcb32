#ifndef DSMS_OBS_TRACER_H_
#define DSMS_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/time.h"
#include "obs/trace_event.h"

namespace dsms {

/// Low-overhead execution tracer: a preallocated ring buffer of typed
/// TraceEvents stamped with virtual time. Recording is an inline store (no
/// allocation, no I/O, no clock mutation); when the ring is full the oldest
/// events are overwritten and counted in dropped(). The engine's hooks are
/// all guarded by a null check — with no tracer attached execution is
/// byte-identical to an untraced run (see tests/trace_equivalence_test.cc).
///
/// Export is Chrome trace-event JSON (chrome://tracing, or ui.perfetto.dev):
/// every operator gets its own "thread" row, arcs get rows in a separate
/// band, steps render as duration slices, idle-wait as nested slices, and
/// NOS/ETS/fault events as instants. See docs/execution_model.md.
class Tracer {
 public:
  /// `clock` stamps events and must outlive the tracer. `capacity` is the
  /// ring size in events (32 bytes each), preallocated up front.
  explicit Tracer(const VirtualClock* clock, size_t capacity = 1 << 18);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- recording hooks (hot path; inline, never touch the clock) ---

  void RecordStep(int op_id, Timestamp start, Duration cost, StepKind kind) {
    Push(TraceEvent{start, cost, 0, op_id, TraceEventType::kStep,
                    static_cast<uint8_t>(kind)});
  }

  void RecordNosRule(int op_id, NosRule rule, int64_t arg = 0) {
    Push(TraceEvent{clock_->now(), 0, arg, op_id, TraceEventType::kNosRule,
                    static_cast<uint8_t>(rule)});
  }

  void RecordEts(int op_id, EtsOrigin origin, Timestamp bound) {
    Push(TraceEvent{clock_->now(), 0, bound, op_id,
                    TraceEventType::kEtsGenerated,
                    static_cast<uint8_t>(origin)});
  }

  void RecordIdleWait(int op_id, bool begin) {
    Push(TraceEvent{clock_->now(), 0, 0, op_id,
                    begin ? TraceEventType::kIdleWaitBegin
                          : TraceEventType::kIdleWaitEnd,
                    0});
  }

  void RecordHighWater(int arc_id, int64_t occupancy) {
    Push(TraceEvent{clock_->now(), 0, occupancy, arc_id,
                    TraceEventType::kBufferHighWater, 0});
  }

  void RecordFault(int op_id, uint8_t fault_kind, int64_t arg) {
    Push(TraceEvent{clock_->now(), 0, arg, op_id,
                    TraceEventType::kFaultInjected, fault_kind});
  }

  void RecordPunctuation(int op_id, bool emitted, Timestamp bound) {
    Push(TraceEvent{clock_->now(), 0, bound, op_id,
                    emitted ? TraceEventType::kPunctuationEmitted
                            : TraceEventType::kPunctuationAbsorbed,
                    0});
  }

  /// A live network frame was ingested into source `op_id`; `frame_type` is
  /// the WireFrame::Type byte, `conn_id` the connection it arrived on.
  void RecordNetIngest(int op_id, uint8_t frame_type, int64_t conn_id) {
    Push(TraceEvent{clock_->now(), 0, conn_id, op_id,
                    TraceEventType::kNetIngest, frame_type});
  }

  /// Checkpoint `checkpoint_id` was written with its frontier at `frontier`,
  /// at virtual time `now` (engine-level: op_id -1; frontier rides in dur).
  void RecordCheckpoint(uint64_t checkpoint_id, Timestamp frontier,
                        Timestamp now) {
    Push(TraceEvent{now, frontier, static_cast<int64_t>(checkpoint_id), -1,
                    TraceEventType::kCheckpoint, 0});
  }

  /// One run of `rows` data tuples was processed at operator `op_id`,
  /// charged `cost`; `punct_split` marks a run stopped early by mid-buffer
  /// punctuation.
  void RecordBatchDrain(int op_id, Timestamp start, Duration cost,
                        int64_t rows, bool punct_split) {
    Push(TraceEvent{start, cost, rows, op_id, TraceEventType::kBatchDrain,
                    static_cast<uint8_t>(punct_split ? 1 : 0)});
  }

  /// Frontier coordination event at source `op_id` (frontier tracker
  /// lifecycle: lease expiry, revival, state change, violation, revoke);
  /// `kind` is a FrontierEventKind byte, `arg` its payload.
  void RecordFrontier(int op_id, uint8_t kind, int64_t arg) {
    Push(TraceEvent{clock_->now(), 0, arg, op_id, TraceEventType::kFrontier,
                    kind});
  }

  /// A shard-boundary crossing in sharded execution: control or a tuple
  /// moved `from_shard` -> `to_shard`, arriving at operator `op_id`.
  void RecordShardHop(int op_id, int from_shard, int to_shard) {
    Push(TraceEvent{clock_->now(), 0, to_shard, op_id,
                    TraceEventType::kShardHop,
                    static_cast<uint8_t>(from_shard)});
  }

  /// The state store spilled block `block_id` (`rows` rows) of operator
  /// `op_id`'s state to disk.
  void RecordStateSpill(int op_id, int64_t block_id, int64_t rows) {
    Push(TraceEvent{clock_->now(), rows, block_id, op_id,
                    TraceEventType::kStateSpill, 0});
  }

  /// A spilled block was loaded back for a probe of operator `op_id`.
  void RecordStateLoad(int op_id, int64_t block_id, int64_t rows) {
    Push(TraceEvent{clock_->now(), rows, block_id, op_id,
                    TraceEventType::kStateLoad, 0});
  }

  /// Recovery restored checkpoint `checkpoint_id` and queued
  /// `replayed_count` WAL records, leaving the clock at `clock_now`
  /// (engine-level: op_id -1; the checkpoint id rides in dur).
  void RecordRecovery(uint64_t checkpoint_id, size_t replayed_count,
                      Timestamp clock_now) {
    Push(TraceEvent{clock_now, static_cast<Duration>(checkpoint_id),
                    static_cast<int64_t>(replayed_count), -1,
                    TraceEventType::kRecovery, 0});
  }

  // --- track naming (wiring time; see AnnotateTracks in obs/trace_wiring)---

  /// Display name of operator `op_id`'s row in the exported trace.
  void SetOperatorName(int op_id, std::string name);
  /// Display name of arc `arc_id`'s row (kept in a separate tid band so
  /// operator ids and arc ids cannot collide).
  void SetArcName(int arc_id, std::string name);

  // --- inspection / export ---

  /// Retained events, oldest first (at most `capacity`; earlier events may
  /// have been dropped — see dropped()).
  std::vector<TraceEvent> Events() const;

  size_t size() const { return count_; }
  size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }

  /// Writes the retained events as Chrome trace-event JSON (the object form,
  /// {"traceEvents": [...]}), loadable in chrome://tracing and Perfetto.
  void WriteChromeTrace(std::ostream& os) const;

  /// Count of retained events of `type` (test convenience).
  size_t CountType(TraceEventType type) const;

 private:
  void Push(const TraceEvent& event) {
    ring_[next_] = event;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++dropped_;
    }
  }

  const VirtualClock* clock_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;
  size_t count_ = 0;
  uint64_t dropped_ = 0;
  std::map<int, std::string> operator_names_;
  std::map<int, std::string> arc_names_;
};

}  // namespace dsms

#endif  // DSMS_OBS_TRACER_H_

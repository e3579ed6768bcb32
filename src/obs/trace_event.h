#ifndef DSMS_OBS_TRACE_EVENT_H_
#define DSMS_OBS_TRACE_EVENT_H_

#include <cstdint>

#include "common/time.h"

namespace dsms {

/// What happened at one instant (or interval) of a run. The taxonomy mirrors
/// the paper's vocabulary: operator steps are the Basic Execution Cycle
/// (Figure 3), NOS rules are Forward/Encore/Backtrack (Section 3.2), ETS
/// births are Section 4, idle-wait intervals are the Section 6 metric.
enum class TraceEventType : uint8_t {
  /// One operator step: `ts` is the step's start, `dur` its charged cost,
  /// `detail` a StepKind.
  kStep = 0,
  /// A Next-Operator-Selection decision at `op_id`; `detail` is a NosRule.
  /// For Backtrack, `arg` is the number of hops the walk took.
  kNosRule = 1,
  /// An ETS punctuation was born at source `op_id`; `detail` is an
  /// EtsOrigin, `arg` the timestamp bound the ETS carries.
  kEtsGenerated = 2,
  /// An IWP operator entered idle-waiting (holds data it cannot emit).
  kIdleWaitBegin = 3,
  /// The same operator resumed progress.
  kIdleWaitEnd = 4,
  /// Arc `op_id` (arc track, not operator track) crossed a power-of-two
  /// occupancy threshold; `arg` is the new occupancy.
  kBufferHighWater = 5,
  /// A fault injector perturbed source `op_id`; `detail` is the FaultKind,
  /// `arg` the action-specific payload (copies delivered, faulty timestamp).
  kFaultInjected = 6,
  /// Operator `op_id` emitted a watermark punctuation with bound `arg`.
  kPunctuationEmitted = 7,
  /// Operator `op_id` absorbed a punctuation with bound `arg` into its TSM
  /// register.
  kPunctuationAbsorbed = 8,
  /// A frame from a live network connection was ingested into source
  /// `op_id`; `detail` is the WireFrame::Type (0 data, 1 punctuation),
  /// `arg` the connection id it arrived on (see net/ingest_server.h).
  kNetIngest = 9,
  /// A punctuation-aligned checkpoint was written (op_id -1: engine-level);
  /// `arg` is the checkpoint id, `ts` the virtual time of the write, `dur`
  /// reused to carry the checkpoint frontier (see recovery/checkpoint.h).
  kCheckpoint = 10,
  /// Recovery completed on startup (op_id -1); `arg` is the number of WAL
  /// records replayed, `dur` reused to carry the recovered checkpoint id.
  kRecovery = 11,
  /// One row run at operator `op_id` with batch mode on: `arg` is the
  /// number of data rows in the run, `dur` the charged cost (rows x
  /// data_step), `detail` 1 when a punctuation mid-buffer stopped the run
  /// (0 otherwise). Replaces the per-tuple kStep slices the same rows
  /// record with batch mode off.
  kBatchDrain = 12,
  /// Frontier coordination event at source `op_id`: lease expiries,
  /// revivals, health-state changes, violations, and promise revocations.
  /// `detail` is a FrontierEventKind, `arg` its payload (new SourceHealth,
  /// FrontierViolation, or stream id — see frontier/frontier_tracker.h).
  kFrontier = 13,
  // 14 was the retired shard-hop event; the value stays unused so the
  // numbering of the events after it is unchanged.
  /// The state store evicted a block of operator `op_id`'s state to disk:
  /// `arg` is the block id, `dur` reused to carry the row count
  /// (storage/state_store.h).
  kStateSpill = 15,
  /// A spilled block of operator `op_id`'s state was loaded back for a
  /// probe; `arg` is the block id, `dur` the row count.
  kStateLoad = 16,
};

/// What an operator step consumed (TraceEvent::detail for kStep).
enum class StepKind : uint8_t { kEmpty = 0, kData = 1, kPunctuation = 2 };

/// Next-Operator-Selection rules (TraceEvent::detail for kNosRule).
enum class NosRule : uint8_t { kForward = 0, kEncore = 1, kBacktrack = 2 };

/// Which mechanism produced an ETS (TraceEvent::detail for kEtsGenerated).
enum class EtsOrigin : uint8_t { kOnDemand = 0, kLease = 1 };

const char* TraceEventTypeToString(TraceEventType type);
const char* StepKindToString(StepKind kind);
const char* NosRuleToString(NosRule rule);
const char* EtsOriginToString(EtsOrigin origin);

/// One fixed-size trace record. 32 bytes, trivially copyable — recording is
/// a bounds-check and a struct store into a preallocated ring.
struct TraceEvent {
  Timestamp ts = 0;    // virtual time (µs) when the event happened
  Duration dur = 0;    // kStep only: charged cost of the step
  int64_t arg = 0;     // type-specific payload (see TraceEventType)
  int32_t op_id = -1;  // operator id; for kBufferHighWater the arc id
  TraceEventType type = TraceEventType::kStep;
  uint8_t detail = 0;  // StepKind / NosRule / EtsOrigin / FaultKind
};

static_assert(sizeof(TraceEvent) <= 32, "TraceEvent must stay ring-friendly");

}  // namespace dsms

#endif  // DSMS_OBS_TRACE_EVENT_H_

#ifndef DSMS_RECOVERY_RECOVERY_MANAGER_H_
#define DSMS_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/time.h"
#include "recovery/checkpoint.h"
#include "recovery/durable_sink.h"
#include "recovery/wal.h"

namespace dsms {

class Executor;
class MetricsRegistry;
class QueryGraph;
class Tracer;

struct RecoveryOptions {
  /// Directory holding WAL segments, checkpoint files, and durable sink
  /// output. Required when either feature is enabled.
  std::string dir;
  /// Write-ahead log every ingested wire frame.
  bool wal = false;
  WalSyncPolicy sync = WalSyncPolicy::kNone;
  uint64_t sync_interval_bytes = 64 * 1024;
  uint64_t segment_bytes = 4 * 1024 * 1024;
  /// Punctuation-aligned checkpoints (requires wal).
  bool checkpoint = false;
  /// Virtual-time distance the punctuation frontier must advance past the
  /// last checkpoint before the next one is taken.
  Duration checkpoint_horizon = 0;
  /// Checkpoint files retained after pruning.
  int keep = 2;
};

/// Orchestrates crash recovery: owns the WAL writer, the loaded checkpoint
/// image, durable sink files, and the per-stream durable sequence counters
/// that back the resume protocol. The ingest server drives it; restore
/// phases are split so state lands before the components that index it are
/// constructed:
///
///   RecoveryManager rm(options);
///   rm.Open();                       // load checkpoint, scan WAL tail
///   rm.RestoreGraph(graph, clock);   // BEFORE the executor is built
///   Executor exec(...);              //   (ctor seeds ready-queue from
///   rm.RestoreExecutor(&exec);       //    restored buffer contents)
///   rm.AttachSinks(graph);           // truncate + re-open sink files
///   ...server.Start(); server.ReplayRecoveredWal(); server.Run();
class RecoveryManager {
 public:
  explicit RecoveryManager(RecoveryOptions options);
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  bool wal_enabled() const { return options_.wal; }
  bool checkpoint_enabled() const { return options_.checkpoint; }

  /// Loads the newest valid checkpoint (if any) and scans the WAL tail past
  /// it, truncating torn bytes. Idempotence guard: call once, before any
  /// restore phase.
  Status Open();

  /// True when Open() found prior state (a checkpoint or WAL records).
  bool recovered() const { return has_image_ || !recovered_records_.empty(); }

  /// Virtual clock value captured by the loaded checkpoint (0 when none).
  Timestamp recovered_clock() const {
    return has_image_ ? image_.clock_now : 0;
  }

  /// Applies checkpointed operator state and buffer contents, and advances
  /// `clock` to the checkpointed instant. Must run after graph Validate()
  /// and before the executor is constructed.
  void RestoreGraph(QueryGraph* graph, VirtualClock* clock);

  /// Applies checkpointed executor state (stats, ETS gate, strategy cursor,
  /// frontier tracker). Must run after the executor is constructed.
  void RestoreExecutor(Executor* executor);

  /// Checkpointed IngestServer section (empty when none was saved).
  const std::string& recovered_net_blob() const {
    return has_image_ ? image_.net_blob : empty_blob_;
  }

  /// Creates one DurableSink per graph sink, truncated back to the
  /// checkpointed byte offset, and installs the emit callbacks.
  Status AttachSinks(QueryGraph* graph);

  /// WAL records past the checkpoint, in append order, for replay.
  const std::vector<WalRecord>& recovered_records() const {
    return recovered_records_;
  }

  /// Appends one delivered frame to the WAL and bumps the durable sequence
  /// of `stream_id`. No-op (OkStatus) when the WAL is disabled.
  Status AppendFrame(Timestamp arrival, int64_t conn_id, int32_t stream_id,
                     const std::string& frame);

  /// Accounts one replayed WAL record against `stream_id`'s durable
  /// sequence (replay must not re-append, but the replayed frames are
  /// already durable and count toward the resume acknowledgement).
  void NoteReplayed(int32_t stream_id);

  /// Durable frame counts per wire stream id — what HELLO answers with.
  const std::map<int32_t, uint64_t>& durable_seqs() const {
    return durable_seqs_;
  }

  /// True when the punctuation frontier has advanced far enough past the
  /// last checkpoint that a new one is due.
  bool ShouldCheckpoint(Timestamp frontier) const;

  /// Takes a checkpoint at `frontier`: syncs the WAL, flushes sinks, snaps
  /// graph + executor + `net_blob` state, writes the file atomically, then
  /// trims WAL segments the checkpoint covers. The caller guarantees the
  /// engine is idle (no buffered work mid-flight is a *policy* choice —
  /// buffers are serialized too, so this holds even with queued tuples).
  Status Checkpoint(QueryGraph* graph, Executor* executor,
                    VirtualClock* clock, Timestamp frontier,
                    const std::string& net_blob);

  /// Forces any buffered WAL bytes to disk (graceful shutdown).
  Status FlushWal();

  /// fsyncs sink files and surfaces deferred sink write errors.
  Status FlushSinks();

  uint64_t wal_appends() const { return wal_ ? wal_->appends() : 0; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  uint64_t replayed_frames() const { return replayed_frames_; }
  uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }
  uint64_t checkpoint_fallbacks() const { return checkpoint_fallbacks_; }

  /// Publishes recovery.* counters (resume_rejects is owned by the server).
  void PublishTo(MetricsRegistry* registry) const;

 private:
  RecoveryOptions options_;
  Tracer* tracer_ = nullptr;

  std::unique_ptr<WalWriter> wal_;
  CheckpointImage image_;
  bool has_image_ = false;
  bool opened_ = false;
  std::string empty_blob_;

  std::vector<WalRecord> recovered_records_;
  std::map<int32_t, uint64_t> durable_seqs_;
  std::vector<std::unique_ptr<DurableSink>> sinks_;

  uint64_t next_checkpoint_id_ = 1;
  Timestamp last_frontier_ = kMinTimestamp;
  uint64_t checkpoints_written_ = 0;
  uint64_t replayed_frames_ = 0;
  uint64_t truncated_tail_bytes_ = 0;
  uint64_t checkpoint_fallbacks_ = 0;
};

}  // namespace dsms

#endif  // DSMS_RECOVERY_RECOVERY_MANAGER_H_

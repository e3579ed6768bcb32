#ifndef DSMS_EXEC_EXEC_STATS_H_
#define DSMS_EXEC_EXEC_STATS_H_

#include <cstdint>
#include <string>

namespace dsms {

class MetricsRegistry;

/// Counters maintained by executors; one instance per executor run.
struct ExecStats {
  /// Operator steps that consumed a data tuple.
  uint64_t data_steps = 0;
  /// Operator steps that consumed a punctuation tuple.
  uint64_t punctuation_steps = 0;
  /// Operator steps that consumed nothing (blocked probes).
  uint64_t empty_steps = 0;
  /// Backtrack walks initiated (Backtrack NOS rule firings).
  uint64_t backtracks = 0;
  /// Individual hops taken during backtrack walks.
  uint64_t backtrack_hops = 0;
  /// On-demand ETS punctuations generated at sources.
  uint64_t ets_generated = 0;
  /// Fallback ETS punctuations emitted on lease expiry (degraded mode: a
  /// silent source was drained via the skew contract).
  uint64_t lease_expired_ets = 0;
  /// Times control returned to the scheduler with nothing runnable.
  uint64_t idle_returns = 0;
  /// Scans over the operator table looking for runnable work.
  uint64_t work_scans = 0;
  /// Row runs stepped (batch mode only; Operator::StepRun).
  uint64_t batches = 0;
  /// Data rows carried by those runs (batch_rows / batches = mean run
  /// length; every such row is also counted in data_steps).
  uint64_t batch_rows = 0;
  /// Runs stopped early by a punctuation mid-buffer (the ordering cut a run
  /// is never allowed to span).
  uint64_t batch_punct_splits = 0;
  /// Steps that were not runs while batch mode was on (an operator that is
  /// not a single-input row operator, a punctuation at the front, an empty
  /// probe).
  uint64_t batch_fallback_steps = 0;

  uint64_t total_steps() const {
    return data_steps + punctuation_steps + empty_steps;
  }

  friend bool operator==(const ExecStats& a, const ExecStats& b) {
    return a.data_steps == b.data_steps &&
           a.punctuation_steps == b.punctuation_steps &&
           a.empty_steps == b.empty_steps && a.backtracks == b.backtracks &&
           a.backtrack_hops == b.backtrack_hops &&
           a.ets_generated == b.ets_generated &&
           a.lease_expired_ets == b.lease_expired_ets &&
           a.idle_returns == b.idle_returns && a.work_scans == b.work_scans &&
           a.batches == b.batches && a.batch_rows == b.batch_rows &&
           a.batch_punct_splits == b.batch_punct_splits &&
           a.batch_fallback_steps == b.batch_fallback_steps;
  }
  friend bool operator!=(const ExecStats& a, const ExecStats& b) {
    return !(a == b);
  }

  std::string ToString() const;

  /// Registers every counter as a live view under `prefix` (e.g.
  /// "exec.data_steps"): the registry reads this struct at snapshot time,
  /// so this object must outlive the registry's snapshots. The struct's
  /// fields remain the accessors; the registry is the reporting path.
  void BindTo(MetricsRegistry* registry, const std::string& prefix) const;

  /// Copies every counter into the registry under `prefix` (a point-in-time
  /// snapshot; safe after this struct dies).
  void PublishTo(MetricsRegistry* registry, const std::string& prefix) const;
};

}  // namespace dsms

#endif  // DSMS_EXEC_EXEC_STATS_H_

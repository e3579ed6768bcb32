#ifndef DSMS_OPERATORS_WINDOW_AGGREGATE_H_
#define DSMS_OPERATORS_WINDOW_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/time.h"
#include "core/tuple.h"
#include "operators/operator.h"

namespace dsms {

/// Aggregate functions supported by WindowAggregate.
enum class AggKind {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kMin = 3,
  kMax = 4,
};

const char* AggKindToString(AggKind kind);

/// Time-window aggregation over a single stream. Windows are aligned:
/// window k covers [k*slide, k*slide + window); slide == window gives
/// tumbling windows, slide < window sliding (overlapping) windows.
///
/// A window's result can only be emitted once the input guarantees that no
/// tuple below the window's end will ever arrive. Data tuples advance that
/// guarantee by their own timestamps — but so does punctuation, which is why
/// ETS matters here too: on a sparse stream, a window's result would
/// otherwise be held back until the *next* data tuple arrives (possibly much
/// later). This operator is the substrate for the `abl_aggregate` ablation.
///
/// Output tuples carry payload [window_start:int64, value:double], timestamp
/// = window end, and arrival_time = window end — so the latency recorded at
/// a sink equals the *emission delay* past the earliest instant the result
/// was semantically available.
///
/// Empty windows emit 0 for kCount/kSum and are skipped for kAvg/kMin/kMax.
/// Latent input tuples are stamped on the fly with the virtual time.
class WindowAggregate : public Operator {
 public:
  /// `field` is the value index aggregated (ignored for kCount).
  WindowAggregate(std::string name, AggKind kind, int field, Duration window,
                  Duration slide);

  StepResult Step(ExecContext& ctx) override;

  /// Latent inputs are stamped on the fly (Section 5).
  bool stamps_latent() const override { return true; }

  /// Output schema: (window_start:int64, value:double); validates the
  /// aggregated field (numeric, unless counting) against the input schema.
  Result<std::optional<Schema>> DeriveSchema(
      const std::vector<std::optional<Schema>>& inputs) const override;

  /// Whether empty windows produce a result (count 0 / sum 0). For these
  /// kinds every window boundary is a deliverable, so once the stream has
  /// started the aggregate perpetually awaits the next boundary.
  bool emits_empty_windows() const {
    return kind_ == AggKind::kCount || kind_ == AggKind::kSum;
  }

  /// Due (or data-holding) windows are released by a fresh upstream bound,
  /// so the aggregate participates in on-demand ETS (extension; the paper
  /// covers IWP operators only).
  bool WantsEts() const override {
    if (!first_seen_) return false;
    return emits_empty_windows() || !accumulators_.empty();
  }

  /// End of the next window whose emission the bound would enable: the next
  /// unemitted window for count/sum, the first data-holding window for
  /// kinds that skip empty windows.
  Timestamp EtsReleaseBound() const override {
    if (!WantsEts()) return kMaxTimestamp;
    if (!emits_empty_windows()) {
      return accumulators_.begin()->first * slide_ + window_;
    }
    return next_emit_k_ * slide_ + window_;
  }

  Duration window() const { return window_; }
  Duration slide() const { return slide_; }
  uint64_t windows_emitted() const { return windows_emitted_; }
  size_t open_windows() const { return accumulators_.size(); }

  void SaveState(StateWriter& w) const override;
  void LoadState(StateReader& r) override;

 private:
  struct Accumulator {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Window index of a timestamp (floor division, correct for negatives).
  int64_t WindowIndexLow(Timestamp ts) const;
  int64_t WindowIndexHigh(Timestamp ts) const;

  static void Add(Accumulator& acc, double v);
  void Accumulate(const Tuple& tuple);
  /// Per-row work of a run: accumulates `row` (already stamped) and emits
  /// every window its timestamp closes.
  void ProcessRow(const Tuple& row);
  void ProcessPunctuation(Timestamp ts);
  /// Emits every window whose end is <= bound.
  void CloseWindowsUpTo(Timestamp bound);
  void EmitWindow(int64_t k, const Accumulator& acc);

  AggKind kind_;
  int field_;
  Duration window_;
  Duration slide_;
  std::map<int64_t, Accumulator> accumulators_;
  bool first_seen_ = false;
  int64_t next_emit_k_ = 0;
  Timestamp bound_ = kMinTimestamp;
  Timestamp last_punct_out_ = kMinTimestamp;
  uint64_t windows_emitted_ = 0;
  /// Accumulator of the current window (next_emit_k_) while rows land in
  /// its single-window band [cached_begin_, cached_end_): such a row costs
  /// two compares and the arithmetic, no FloorDiv and no map lookup. Null
  /// whenever a close may have erased the node; never checkpointed.
  Accumulator* cached_ = nullptr;
  Timestamp cached_begin_ = 0;
  Timestamp cached_end_ = 0;
};

}  // namespace dsms

#endif  // DSMS_OPERATORS_WINDOW_AGGREGATE_H_

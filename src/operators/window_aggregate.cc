#include "operators/window_aggregate.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "core/schema.h"
#include "core/value.h"
#include "recovery/state_codec.h"

namespace dsms {
namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "unknown";
}

WindowAggregate::WindowAggregate(std::string name, AggKind kind, int field,
                                 Duration window, Duration slide)
    : Operator(std::move(name)),
      kind_(kind),
      field_(field),
      window_(window),
      slide_(slide) {
  DSMS_CHECK_GT(window, 0);
  DSMS_CHECK_GT(slide, 0);
  DSMS_CHECK_LE(slide, window);
}

Result<std::optional<Schema>> WindowAggregate::DeriveSchema(
    const std::vector<std::optional<Schema>>& inputs) const {
  if (!inputs.empty() && inputs[0].has_value() && kind_ != AggKind::kCount) {
    DSMS_RETURN_IF_ERROR(CheckFieldAccess(*inputs[0], field_,
                                          /*require_numeric=*/true, name()));
  }
  return std::optional<Schema>(Schema{{"window_start", ValueType::kInt64},
                                      {AggKindToString(kind_),
                                       ValueType::kDouble}});
}

int64_t WindowAggregate::WindowIndexLow(Timestamp ts) const {
  // Smallest k with k*slide + window > ts.
  return FloorDiv(ts - window_, slide_) + 1;
}

int64_t WindowAggregate::WindowIndexHigh(Timestamp ts) const {
  // Largest k with k*slide <= ts.
  return FloorDiv(ts, slide_);
}

void WindowAggregate::Add(Accumulator& acc, double v) {
  if (acc.count == 0) {
    acc.min = v;
    acc.max = v;
  } else {
    acc.min = std::min(acc.min, v);
    acc.max = std::max(acc.max, v);
  }
  ++acc.count;
  acc.sum += v;
}

void WindowAggregate::Accumulate(const Tuple& tuple) {
  Timestamp ts = tuple.timestamp();
  double v = kind_ == AggKind::kCount ? 0.0 : tuple.value(field_).AsDouble();
  for (int64_t k = WindowIndexLow(ts); k <= WindowIndexHigh(ts); ++k) {
    if (k < next_emit_k_ && first_seen_) continue;  // Window already closed.
    Add(accumulators_[k], v);
  }
}

void WindowAggregate::EmitWindow(int64_t k, const Accumulator& acc) {
  if (acc.count == 0 &&
      (kind_ == AggKind::kAvg || kind_ == AggKind::kMin ||
       kind_ == AggKind::kMax)) {
    return;
  }
  double value = 0.0;
  switch (kind_) {
    case AggKind::kCount:
      value = static_cast<double>(acc.count);
      break;
    case AggKind::kSum:
      value = acc.sum;
      break;
    case AggKind::kAvg:
      value = acc.sum / static_cast<double>(acc.count);
      break;
    case AggKind::kMin:
      value = acc.min;
      break;
    case AggKind::kMax:
      value = acc.max;
      break;
  }
  Timestamp start = k * slide_;
  Timestamp end = start + window_;
  std::vector<Value> payload;
  payload.emplace_back(static_cast<int64_t>(start));
  payload.emplace_back(value);
  Tuple result = Tuple::MakeData(end, std::move(payload));
  // Latency measured downstream = emission delay past the window's end.
  result.set_arrival_time(end);
  ++windows_emitted_;
  Emit(std::move(result));
}

void WindowAggregate::CloseWindowsUpTo(Timestamp bound) {
  if (!first_seen_) return;
  // Window k closes when k*slide + window <= bound.
  int64_t closable_end = FloorDiv(bound - window_, slide_);
  while (next_emit_k_ <= closable_end) {
    cached_ = nullptr;  // The current window's node is erased below.
    auto it = accumulators_.find(next_emit_k_);
    if (it != accumulators_.end()) {
      EmitWindow(next_emit_k_, it->second);
      accumulators_.erase(it);
    } else {
      EmitWindow(next_emit_k_, Accumulator{});
    }
    ++next_emit_k_;
  }
}

StepResult WindowAggregate::Step(ExecContext& ctx) {
  return StepRun(
      ctx,
      [this, &ctx](Tuple row) {
        // Latent rows are stamped on the fly; the clock does not move
        // inside a run, so every row of a run gets the same stamp.
        if (!row.has_timestamp()) row.set_timestamp(ctx.now());
        ProcessRow(row);
      },
      [this](Tuple punctuation) {
        ProcessPunctuation(punctuation.timestamp());
      });
}

void WindowAggregate::ProcessRow(const Tuple& row) {
  const Timestamp ts = row.timestamp();
  // A cache hit can never close a window: it accumulates into next_emit_k_
  // itself, whose end the bound has not reached (invariant: bound_ <
  // next_emit_k_*slide + window between rows).
  if (cached_ != nullptr && ts >= cached_begin_ && ts < cached_end_) {
    Add(*cached_,
        kind_ == AggKind::kCount ? 0.0 : row.value(field_).AsDouble());
    if (ts > bound_) bound_ = ts;
    return;
  }
  if (!first_seen_) {
    first_seen_ = true;
    next_emit_k_ = WindowIndexLow(ts);
  }
  Accumulate(row);
  if (ts > bound_) bound_ = ts;
  // CloseWindowsUpTo's loop runs iff next_emit_k_*slide + window <= bound;
  // hoisting that test keeps the per-row cost of a window-interior tuple at
  // one compare instead of a FloorDiv + call.
  if (bound_ >= next_emit_k_ * slide_ + window_) CloseWindowsUpTo(bound_);
  // (Re)establish the cache when this row's one-and-only window is the
  // current one. The single-window band of window k is
  // [max(k*slide, (k-1)*slide + window), min((k+1)*slide, k*slide +
  // window)) — the whole window for tumbling, the non-overlap core when
  // slide < window < 2*slide, empty otherwise (the cache never engages).
  // The row has just accumulated into window k, so the node exists.
  const int64_t k = next_emit_k_;
  const Timestamp begin = std::max(k * slide_, (k - 1) * slide_ + window_);
  const Timestamp end = std::min((k + 1) * slide_, k * slide_ + window_);
  if (ts >= begin && ts < end) {
    cached_ = &accumulators_[k];
    cached_begin_ = begin;
    cached_end_ = end;
  }
}

void WindowAggregate::ProcessPunctuation(Timestamp ts) {
  if (!first_seen_) {
    first_seen_ = true;
    next_emit_k_ = WindowIndexLow(ts);
  }
  bound_ = std::max(bound_, ts);
  CloseWindowsUpTo(bound_);
  // Future outputs carry timestamps >= the next window's end; propagate
  // that (stronger) bound downstream, deduplicated.
  Timestamp next_end = next_emit_k_ * slide_ + window_;
  if (next_end > last_punct_out_) {
    last_punct_out_ = next_end;
    Emit(Tuple::MakePunctuation(next_end));
  }
}

void WindowAggregate::SaveState(StateWriter& w) const {
  Operator::SaveState(w);
  w.U32(static_cast<uint32_t>(accumulators_.size()));
  for (const auto& [k, acc] : accumulators_) {
    w.I64(k);
    w.U64(acc.count);
    w.F64(acc.sum);
    w.F64(acc.min);
    w.F64(acc.max);
  }
  w.Bool(first_seen_);
  w.I64(next_emit_k_);
  w.Ts(bound_);
  w.Ts(last_punct_out_);
  w.U64(windows_emitted_);
}

void WindowAggregate::LoadState(StateReader& r) {
  Operator::LoadState(r);
  accumulators_.clear();
  cached_ = nullptr;
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    int64_t k = r.I64();
    Accumulator acc;
    acc.count = r.U64();
    acc.sum = r.F64();
    acc.min = r.F64();
    acc.max = r.F64();
    accumulators_[k] = acc;
  }
  first_seen_ = r.Bool();
  next_emit_k_ = r.I64();
  bound_ = r.Ts();
  last_punct_out_ = r.Ts();
  windows_emitted_ = r.U64();
}

}  // namespace dsms

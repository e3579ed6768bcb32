#include "operators/multiway_join.h"

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

/// Probe-order re-evaluation period, in absorbed punctuations.
static constexpr uint64_t kReorderPeriod = 16;

MultiWayJoin::MultiWayJoin(std::string name, std::vector<Duration> windows,
                           Predicate predicate, bool ordered)
    : IwpOperator(std::move(name), ordered),
      window_durations_(std::move(windows)),
      predicate_(std::move(predicate)) {
  DSMS_CHECK_GE(window_durations_.size(), 2u);
  for (Duration w : window_durations_) DSMS_CHECK_GE(w, 0);
  const size_t n = window_durations_.size();
  for (size_t i = 0; i < n; ++i) {
    tables_.emplace_back();
    tables_.back().set_name(this->name() + ".in" + std::to_string(i));
    probe_order_.push_back(static_cast<int>(i));
  }
  probe_uses_.assign(n, 0);
  probe_rows_.assign(n, 0);
}

MultiWayJoin::Predicate MultiWayJoin::EquiJoin(int field) {
  return [field](const std::vector<const Tuple*>& match) {
    for (size_t i = 1; i < match.size(); ++i) {
      if (!(match[i]->value(field) == match[0]->value(field))) return false;
    }
    return true;
  };
}

void MultiWayJoin::set_equi_field(int field) {
  equi_field_ = field;
  for (StateTable& table : tables_) table.set_key_field(field);
}

void MultiWayJoin::BindStateStore(StateStore* store) {
  store_ = store;
  for (StateTable& table : tables_) table.Bind(store, this);
}

Result<std::optional<Schema>> MultiWayJoin::DeriveSchema(
    const std::vector<std::optional<Schema>>& inputs) const {
  for (const auto& schema : inputs) {
    if (!schema.has_value()) return std::optional<Schema>();
  }
  if (inputs.empty()) return std::optional<Schema>();
  if (equi_field_ >= 0) {
    ValueType key_type = ValueType::kInt64;
    for (size_t i = 0; i < inputs.size(); ++i) {
      DSMS_RETURN_IF_ERROR(CheckFieldAccess(*inputs[i], equi_field_,
                                            /*require_numeric=*/false,
                                            name()));
      ValueType t = inputs[i]->field(equi_field_).type;
      if (i == 0) {
        key_type = t;
      } else if (t != key_type) {
        return InvalidArgumentError(StrFormat(
            "%s: key field %d has type %s on input %zu but %s on input 0",
            name().c_str(), equi_field_, ValueTypeToString(t), i,
            ValueTypeToString(key_type)));
      }
    }
  }
  Schema combined = *inputs[0];
  for (size_t i = 1; i < inputs.size(); ++i) {
    combined = combined.Concat(*inputs[i]);
  }
  return std::optional<Schema>(std::move(combined));
}

size_t MultiWayJoin::window_size(int input) const {
  DSMS_CHECK_GE(input, 0);
  DSMS_CHECK_LT(static_cast<size_t>(input), tables_.size());
  return tables_[static_cast<size_t>(input)].size();
}

size_t MultiWayJoin::total_window_size() const {
  size_t total = 0;
  for (const StateTable& table : tables_) total += table.size();
  return total;
}

const StateTable& MultiWayJoin::state_table(int input) const {
  DSMS_CHECK_GE(input, 0);
  DSMS_CHECK_LT(static_cast<size_t>(input), tables_.size());
  return tables_[static_cast<size_t>(input)];
}

Duration MultiWayJoin::TakeStorageStall() {
  Duration total = 0;
  for (StateTable& table : tables_) total += table.TakeStall();
  return total;
}

void MultiWayJoin::ExpireWindow(int input, Timestamp bound) {
  if (bound == kMinTimestamp) return;
  tables_[static_cast<size_t>(input)].Expire(
      bound - window_durations_[static_cast<size_t>(input)]);
}

void MultiWayJoin::ExpireAllWindows(Timestamp bound) {
  // Ordered execution consumes tuples in global timestamp order, so every
  // future fresh tuple (on any input) has timestamp >= bound: a stored
  // tuple of input j older than bound − w_j can never be probed again.
  for (int j = 0; j < num_inputs(); ++j) ExpireWindow(j, bound);
}

void MultiWayJoin::MaybeReorderProbes() {
  if (!adaptive_ || puncts_seen_ % kReorderPeriod != 0) return;
  // Cheapest-first: fewest delivered rows per probe goes earliest, so the
  // recursion's intermediate fan-out shrinks as fast as possible. An input
  // never probed yet counts as free. Ties break on input index, keeping the
  // order a pure function of consumed input (deterministic).
  std::sort(probe_order_.begin(), probe_order_.end(), [this](int a, int b) {
    const size_t ia = static_cast<size_t>(a), ib = static_cast<size_t>(b);
    const double avg_a =
        probe_uses_[ia] == 0
            ? 0.0
            : static_cast<double>(probe_rows_[ia]) /
                  static_cast<double>(probe_uses_[ia]);
    const double avg_b =
        probe_uses_[ib] == 0
            ? 0.0
            : static_cast<double>(probe_rows_[ib]) /
                  static_cast<double>(probe_uses_[ib]);
    if (avg_a != avg_b) return avg_a < avg_b;
    return a < b;
  });
}

void MultiWayJoin::EmitMatch(const std::vector<const Tuple*>& match,
                             const Tuple& fresh) {
  if (predicate_ && !predicate_(match)) return;
  std::vector<Value> combined;
  size_t total = 0;
  for (const Tuple* t : match) total += t->values().size();
  combined.reserve(total);
  for (const Tuple* t : match) {
    combined.insert(combined.end(), t->values().begin(), t->values().end());
  }
  Timestamp tau = fresh.timestamp();
  Tuple result = Tuple::MakeData(
      tau, std::move(combined),
      fresh.timestamp_kind() == TimestampKind::kLatent
          ? TimestampKind::kInternal
          : fresh.timestamp_kind());
  result.set_arrival_time(fresh.arrival_time());
  result.set_source_id(fresh.source_id());
  result.set_sequence(fresh.sequence());
  NoteDataEmitted(tau);
  ++matches_emitted_;
  Emit(std::move(result));
}

void MultiWayJoin::ProbeRecursive(size_t depth, int fresh_input,
                                  const Tuple& fresh,
                                  std::vector<const Tuple*>* match) {
  if (depth == probe_order_.size()) {
    EmitMatch(*match, fresh);
    return;
  }
  const int input = probe_order_[depth];
  if (input == fresh_input) {
    (*match)[static_cast<size_t>(input)] = &fresh;
    ProbeRecursive(depth + 1, fresh_input, fresh, match);
    return;
  }
  // Band rule vs the fresh tuple (same as the binary join): a stored tuple
  // at ts joins iff ts <= τ ? τ − ts <= w(input) : ts − τ <= w(fresh),
  // i.e. ts ∈ [τ − w(input), τ + w(fresh)].
  const Timestamp tau = fresh.timestamp();
  const Value* key =
      equi_field_ >= 0 &&
              equi_field_ < static_cast<int>(fresh.values().size())
          ? &fresh.value(equi_field_)
          : nullptr;
  StateTable& table = tables_[static_cast<size_t>(input)];
  ++probe_uses_[static_cast<size_t>(input)];
  table.Probe(
      tau - window_durations_[static_cast<size_t>(input)],
      tau + window_durations_[static_cast<size_t>(fresh_input)], key,
      [&](const Tuple& stored) {
        ++probe_rows_[static_cast<size_t>(input)];
        (*match)[static_cast<size_t>(input)] = &stored;
        ProbeRecursive(depth + 1, fresh_input, fresh, match);
      });
}

void MultiWayJoin::ProcessData(int input, Tuple tuple) {
  // Hold the store lock across the whole probe cascade: nested probes keep
  // references into resident blocks, which an eviction by another thread
  // stepping an operator of the same store could otherwise drop
  // mid-recursion. The engine steps on one thread today, so the lock is
  // uncontended.
  StateStore::Guard guard(store_);
  Timestamp tau = tuple.timestamp();
  ExpireAllWindows(tau);
  std::vector<const Tuple*> match(static_cast<size_t>(num_inputs()),
                                  nullptr);
  ProbeRecursive(0, input, tuple, &match);
  StateTable& own = tables_[static_cast<size_t>(input)];
  own.Append(std::move(tuple));
  own.MaybeEvict();
}

StepResult MultiWayJoin::Step(ExecContext& ctx) {
  ++stats_.steps;
  for (StateTable& table : tables_) table.BeginStep(ctx.now());
  if (!ordered()) return StepUnordered(ctx);

  StepResult result;
  ObserveHeads();

  int ready = FindReadyInput();
  if (ready < 0) {
    FillBlockedResult(&result);
    result.yield = AnyOutputNonEmpty(*this);
    result.storage_stall = TakeStorageStall();
    return result;
  }

  Tuple tuple = TakeInput(ready);
  if (tuple.is_data()) {
    result.processed_data = true;
    ProcessData(ready, std::move(tuple));
  } else {
    result.processed_punctuation = true;
    ExpireAllWindows(MinEffectiveTsm());
    MaybeEmitPunctuation(MinEffectiveTsm());
    ++puncts_seen_;
    MaybeReorderProbes();
  }

  result.more = RelaxedMore();
  if (!result.more) {
    result.idle_waiting = HasPendingData();
    result.blocked_input = BlockedInput();
  }
  result.yield = AnyOutputNonEmpty(*this);
  result.storage_stall = TakeStorageStall();
  return result;
}

StepResult MultiWayJoin::StepUnordered(ExecContext& ctx) {
  StepResult result;
  for (int scan = 0; scan < num_inputs(); ++scan) {
    int i = (next_unordered_input_ + scan) % num_inputs();
    if (input(i)->empty()) continue;
    next_unordered_input_ = (i + 1) % num_inputs();
    Tuple tuple = TakeInput(i);
    if (tuple.is_punctuation()) {
      result.processed_punctuation = true;
      ExpireAllWindows(tuple.timestamp());
      MaybeEmitPunctuation(tuple.timestamp());
      ++puncts_seen_;
      MaybeReorderProbes();
    } else {
      result.processed_data = true;
      if (!tuple.has_timestamp()) tuple.set_timestamp(ctx.now());
      ProcessData(i, std::move(tuple));
    }
    break;
  }
  result.more = Operator::HasWork();
  result.yield = AnyOutputNonEmpty(*this);
  result.storage_stall = TakeStorageStall();
  return result;
}

void MultiWayJoin::SaveState(StateWriter& w) const {
  IwpOperator::SaveState(w);
  w.U32(static_cast<uint32_t>(tables_.size()));
  for (const StateTable& table : tables_) table.SaveState(w);
  // The adaptive probe schedule is execution state: restoring it keeps
  // post-recovery match-enumeration order identical to an uninterrupted
  // run.
  for (int input : probe_order_) w.I64(input);
  for (uint64_t uses : probe_uses_) w.U64(uses);
  for (uint64_t rows : probe_rows_) w.U64(rows);
  w.U64(puncts_seen_);
  w.U64(matches_emitted_);
  w.I64(next_unordered_input_);
}

void MultiWayJoin::LoadState(StateReader& r) {
  IwpOperator::LoadState(r);
  uint32_t count = r.U32();
  if (!r.ok()) return;
  // Checkpoint/plan mismatch: a different input count means different
  // window configuration — fail stop rather than silently dropping state.
  DSMS_CHECK_EQ(count, tables_.size());
  for (StateTable& table : tables_) {
    table.LoadState(r);
    if (!r.ok()) return;
  }
  for (size_t i = 0; i < tables_.size() && r.ok(); ++i) {
    probe_order_[i] = static_cast<int>(r.I64());
  }
  for (size_t i = 0; i < tables_.size() && r.ok(); ++i) {
    probe_uses_[i] = r.U64();
  }
  for (size_t i = 0; i < tables_.size() && r.ok(); ++i) {
    probe_rows_[i] = r.U64();
  }
  if (!r.ok()) return;
  puncts_seen_ = r.U64();
  matches_emitted_ = r.U64();
  next_unordered_input_ = static_cast<int>(r.I64());
}

}  // namespace dsms

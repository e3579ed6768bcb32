#include "operators/operator.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "recovery/state_codec.h"

namespace dsms {

Operator::Operator(std::string name) : name_(std::move(name)) {}

void Operator::AddInput(StreamBuffer* buffer) {
  DSMS_CHECK(buffer != nullptr);
  inputs_.push_back(buffer);
}

void Operator::AddOutput(StreamBuffer* buffer) {
  DSMS_CHECK(buffer != nullptr);
  outputs_.push_back(buffer);
}

StreamBuffer* Operator::input(int index) const {
  DSMS_CHECK_GE(index, 0);
  DSMS_CHECK_LT(index, num_inputs());
  return inputs_[static_cast<size_t>(index)];
}

StreamBuffer* Operator::output(int index) const {
  DSMS_CHECK_GE(index, 0);
  DSMS_CHECK_LT(index, num_outputs());
  return outputs_[static_cast<size_t>(index)];
}

Result<std::optional<Schema>> Operator::DeriveSchema(
    const std::vector<std::optional<Schema>>& inputs) const {
  if (inputs.empty()) return std::optional<Schema>();
  return inputs[0];
}

bool Operator::HasWork() const {
  for (const StreamBuffer* in : inputs_) {
    if (!in->empty()) return true;
  }
  return false;
}

bool Operator::HasPendingData() const {
  for (const StreamBuffer* in : inputs_) {
    if (in->data_size() > 0) return true;
  }
  return false;
}

void Operator::SaveState(StateWriter& w) const {
  w.U64(stats_.data_in);
  w.U64(stats_.punctuation_in);
  w.U64(stats_.data_out);
  w.U64(stats_.punctuation_out);
  w.U64(stats_.steps);
}

void Operator::LoadState(StateReader& r) {
  stats_.data_in = r.U64();
  stats_.punctuation_in = r.U64();
  stats_.data_out = r.U64();
  stats_.punctuation_out = r.U64();
  stats_.steps = r.U64();
}

std::string Operator::ToString() const {
  return StrFormat("%s(#%d)", name_.c_str(), id_);
}

Tuple Operator::TakeInput(int index) {
  Tuple tuple = input(index)->Pop();
  if (tuple.is_data()) {
    ++stats_.data_in;
  } else {
    ++stats_.punctuation_in;
  }
  return tuple;
}

void Operator::Emit(Tuple tuple) {
  if (tuple.is_data()) {
    ++stats_.data_out;
  } else {
    ++stats_.punctuation_out;
  }
  DSMS_CHECK_GT(num_outputs(), 0);
  // Clone for all but the last output so the common single-output case moves.
  for (int i = 0; i < num_outputs() - 1; ++i) {
    outputs_[static_cast<size_t>(i)]->Push(tuple);
  }
  outputs_.back()->Push(std::move(tuple));
}

void Operator::EmitTo(int index, Tuple tuple) {
  if (tuple.is_data()) {
    ++stats_.data_out;
  } else {
    ++stats_.punctuation_out;
  }
  output(index)->Push(std::move(tuple));
}

bool AnyOutputNonEmpty(const Operator& op) {
  for (int i = 0; i < op.num_outputs(); ++i) {
    if (!op.output(i)->empty()) return true;
  }
  return false;
}

}  // namespace dsms

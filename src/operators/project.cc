#include "operators/project.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "core/value.h"

namespace dsms {

Project::Project(std::string name, std::vector<int> keep_indices)
    : Operator(std::move(name)), keep_indices_(std::move(keep_indices)) {}

Result<std::optional<Schema>> Project::DeriveSchema(
    const std::vector<std::optional<Schema>>& inputs) const {
  if (inputs.empty() || !inputs[0].has_value()) {
    return std::optional<Schema>();
  }
  const Schema& in = *inputs[0];
  std::vector<Field> fields;
  fields.reserve(keep_indices_.size());
  for (int idx : keep_indices_) {
    if (idx < 0 || idx >= in.num_fields()) {
      return InvalidArgumentError(StrFormat(
          "%s: projected field %d out of bounds for input schema %s",
          name().c_str(), idx, in.ToString().c_str()));
    }
    fields.push_back(in.field(idx));
  }
  return std::optional<Schema>(Schema(std::move(fields)));
}

StepResult Project::Step(ExecContext& ctx) {
  return StepRun(
      ctx,
      [this](Tuple tuple) {
        std::vector<Value> projected;
        projected.reserve(keep_indices_.size());
        for (int idx : keep_indices_) projected.push_back(tuple.value(idx));
        tuple.mutable_values() = std::move(projected);
        Emit(std::move(tuple));
      },
      [this](Tuple punctuation) { Emit(std::move(punctuation)); });
}

}  // namespace dsms

#include "operators/filter.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/schema.h"
#include "recovery/state_codec.h"

namespace dsms {

Filter::Filter(std::string name, Predicate predicate)
    : Operator(std::move(name)), predicate_(std::move(predicate)) {
  DSMS_CHECK(predicate_ != nullptr);
}

Result<std::optional<Schema>> Filter::DeriveSchema(
    const std::vector<std::optional<Schema>>& inputs) const {
  if (inputs.empty() || !inputs[0].has_value()) {
    return std::optional<Schema>();
  }
  if (required_numeric_field_ >= 0) {
    DSMS_RETURN_IF_ERROR(CheckFieldAccess(*inputs[0], required_numeric_field_,
                                          /*require_numeric=*/true, name()));
  }
  return inputs[0];
}

StepResult Filter::Step(ExecContext& ctx) {
  return StepRun(
      ctx,
      [this](Tuple tuple) {
        if (predicate_(tuple)) Emit(std::move(tuple));
      },
      [this](Tuple punctuation) { Emit(std::move(punctuation)); });
}

RandomDropFilter::RandomDropFilter(std::string name, double selectivity,
                                   uint64_t seed)
    : Operator(std::move(name)),
      selectivity_(selectivity),
      rng_(seed, /*stream=*/0x5e1ec7) {
  DSMS_CHECK_GE(selectivity, 0.0);
  DSMS_CHECK_LE(selectivity, 1.0);
}

StepResult RandomDropFilter::Step(ExecContext& ctx) {
  return StepRun(
      ctx,
      [this](Tuple tuple) {
        if (rng_.NextBernoulli(selectivity_)) Emit(std::move(tuple));
      },
      [this](Tuple punctuation) { Emit(std::move(punctuation)); });
}

void RandomDropFilter::SaveState(StateWriter& w) const {
  Operator::SaveState(w);
  w.U64(rng_.state());
  w.U64(rng_.inc());
}

void RandomDropFilter::LoadState(StateReader& r) {
  Operator::LoadState(r);
  uint64_t state = r.U64();
  uint64_t inc = r.U64();
  if (r.ok()) rng_.RestoreState(state, inc);
}

}  // namespace dsms

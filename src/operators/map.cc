#include "operators/map.h"

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/value.h"

namespace dsms {

MapOp::MapOp(std::string name, Transform transform)
    : Operator(std::move(name)), transform_(std::move(transform)) {
  DSMS_CHECK(transform_ != nullptr);
}

StepResult MapOp::Step(ExecContext& ctx) {
  return StepRun(
      ctx,
      [this](Tuple tuple) {
        tuple.mutable_values() = transform_(tuple.values());
        Emit(std::move(tuple));
      },
      [this](Tuple punctuation) { Emit(std::move(punctuation)); });
}

CopyOp::CopyOp(std::string name) : Operator(std::move(name)) {}

StepResult CopyOp::Step(ExecContext& ctx) {
  (void)ctx;
  ++stats_.steps;
  StepResult result;
  if (!input(0)->empty()) {
    Tuple tuple = TakeInput(0);
    if (tuple.is_punctuation()) {
      result.processed_punctuation = true;
    } else {
      result.processed_data = true;
    }
    Emit(std::move(tuple));
  }
  result.more = !input(0)->empty();
  result.yield = AnyOutputNonEmpty(*this);
  return result;
}

}  // namespace dsms

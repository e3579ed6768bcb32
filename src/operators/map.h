#ifndef DSMS_OPERATORS_MAP_H_
#define DSMS_OPERATORS_MAP_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/inlined_values.h"
#include "core/schema.h"
#include "core/value.h"
#include "operators/operator.h"

namespace dsms {

/// Stateless per-tuple transformation of the payload; timestamp, lineage and
/// arrival time are preserved (non-IWP production rule of Section 2: output
/// timestamp equals input timestamp). Punctuation passes through.
class MapOp : public Operator {
 public:
  using Transform = std::function<InlinedValues(const InlinedValues&)>;

  MapOp(std::string name, Transform transform);

  /// The transform is opaque, so the output schema is unknown unless
  /// declared here.
  void set_output_schema(Schema schema) { output_schema_ = std::move(schema); }

  Result<std::optional<Schema>> DeriveSchema(
      const std::vector<std::optional<Schema>>& inputs) const override {
    (void)inputs;
    return output_schema_;
  }

  StepResult Step(ExecContext& ctx) override;

 private:
  Transform transform_;
  std::optional<Schema> output_schema_;
};

/// Copies every input tuple to all of its output arcs — the explicit fan-out
/// node that keeps every StreamBuffer single-consumer.
class CopyOp : public Operator {
 public:
  explicit CopyOp(std::string name);

  int max_outputs() const override { return 1 << 20; }  // fan-out

  StepResult Step(ExecContext& ctx) override;
};

}  // namespace dsms

#endif  // DSMS_OPERATORS_MAP_H_

#ifndef DSMS_OPERATORS_PROJECT_H_
#define DSMS_OPERATORS_PROJECT_H_

#include <string>
#include <vector>

#include "operators/operator.h"

namespace dsms {

/// Projection: keeps the listed value positions of each data tuple, in the
/// given order (duplicates allowed). Punctuation passes through.
class Project : public Operator {
 public:
  Project(std::string name, std::vector<int> keep_indices);

  const std::vector<int>& keep_indices() const { return keep_indices_; }

  /// Output schema = the selected fields, in order; errors on an index out
  /// of the (known) input schema's bounds.
  Result<std::optional<Schema>> DeriveSchema(
      const std::vector<std::optional<Schema>>& inputs) const override;

  StepResult Step(ExecContext& ctx) override;

 private:
  std::vector<int> keep_indices_;
};

}  // namespace dsms

#endif  // DSMS_OPERATORS_PROJECT_H_

#ifndef DSMS_OPERATORS_FILTER_H_
#define DSMS_OPERATORS_FILTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/tuple.h"
#include "operators/operator.h"

namespace dsms {

/// Selection: forwards data tuples satisfying a predicate, drops the rest.
/// Non-IWP: punctuation tuples pass through unchanged (Section 4.2).
class Filter : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  Filter(std::string name, Predicate predicate);

  /// Optional typing contract for the (otherwise opaque) predicate: the
  /// predicate reads `field` numerically. QueryGraph::Validate then checks
  /// bounds and numeric type against the input schema. Used by DSL-built
  /// comparison filters.
  void set_required_numeric_field(int field) {
    required_numeric_field_ = field;
  }

  Result<std::optional<Schema>> DeriveSchema(
      const std::vector<std::optional<Schema>>& inputs) const override;

  StepResult Step(ExecContext& ctx) override;

 private:
  Predicate predicate_;
  int required_numeric_field_ = -1;
};

/// Selection with a Bernoulli predicate: each data tuple independently
/// passes with probability `selectivity`. This is the paper's experimental
/// selection operator ("low selectivity, 95% tuples pass through").
/// Deterministic given the seed.
class RandomDropFilter : public Operator {
 public:
  RandomDropFilter(std::string name, double selectivity, uint64_t seed);

  double selectivity() const { return selectivity_; }

  /// One Bernoulli draw per data row, in arrival order, whatever the row
  /// budget: the RNG sequence is a function of the input alone.
  StepResult Step(ExecContext& ctx) override;

  /// The RNG position is engine-behavior state: replay after recovery must
  /// draw the same pass/drop sequence the original run would have.
  void SaveState(StateWriter& w) const override;
  void LoadState(StateReader& r) override;

 private:
  double selectivity_;
  Pcg32 rng_;
};

}  // namespace dsms

#endif  // DSMS_OPERATORS_FILTER_H_

#ifndef DSMS_EXEC_ROUND_ROBIN_EXECUTOR_H_
#define DSMS_EXEC_ROUND_ROBIN_EXECUTOR_H_

#include "common/clock.h"
#include "exec/executor.h"
#include "graph/query_graph.h"

namespace dsms {

/// Baseline scheduling strategy (extension; the paper considers DFS and
/// notes operator scheduling as orthogonal related work): visits operators
/// cyclically and gives each runnable operator a quantum of steps before
/// moving on. On-demand ETS composes with it: when a full cycle finds
/// nothing runnable, the pending backtrack of any idle-waiting IWP operator
/// is resumed at its blocking source (TryEtsSweep).
///
/// Compared with DFS, tuples are not pushed to the output as soon as
/// produced, so output latency is typically higher at equal cost — measured
/// by bench/abl_scheduler.
class RoundRobinExecutor : public Executor {
 public:
  /// `quantum`: max consecutive steps per operator visit (>= 1).
  RoundRobinExecutor(QueryGraph* graph, VirtualClock* clock, ExecConfig config,
                     int quantum = 8);

  bool RunStep() override;

 protected:
  std::vector<int64_t> ExportStrategyState() const override {
    return {cursor_, used_in_quantum_};
  }
  void ImportStrategyState(const std::vector<int64_t>& state) override {
    if (state.size() == 2) {
      cursor_ = static_cast<int>(state[0]);
      used_in_quantum_ = static_cast<int>(state[1]);
    }
  }

 private:
  void AdvanceCursor();
  void MarkBlockedIwp(Operator* op);
  bool StepOperator(Operator* op);

  int quantum_;
  int cursor_ = 0;
  int used_in_quantum_ = 0;
};

}  // namespace dsms

#endif  // DSMS_EXEC_ROUND_ROBIN_EXECUTOR_H_

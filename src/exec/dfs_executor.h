#ifndef DSMS_EXEC_DFS_EXECUTOR_H_
#define DSMS_EXEC_DFS_EXECUTOR_H_

#include "common/clock.h"
#include "exec/executor.h"
#include "graph/query_graph.h"
#include "operators/operator.h"

namespace dsms {

/// The depth-first execution strategy of Section 3.1 — "basically equivalent
/// to a first-in-first-out strategy: tuples are sent to the next operator
/// down the path as soon as they are produced" — implemented with the three
/// Next-Operator-Selection rules:
///
///   Forward:   if yield then next := succ
///   Encore:    else if more then next := self
///   Backtrack: else next := pred_j (the predecessor feeding the blocking
///              input) and repeat the NOS step on pred_j
///
/// extended with on-demand ETS generation when backtracking reaches an empty
/// source while an idle-waiting operator holds blocked data (Section 4).
///
/// Differences from the paper's presentation, both behaviour-preserving:
///  - sink nodes are schedulable operators here, so the "last operator
///    before the Sink ignores Forward" special case falls out naturally
///    (Forward enters the sink, which drains via Encore);
///  - when a blocked component is re-activated by the scheduler after time
///    passed, the executor resumes the pending backtrack at the blocking
///    source directly (TryEtsSweep) instead of replaying the walk.
class DfsExecutor : public Executor {
 public:
  DfsExecutor(QueryGraph* graph, VirtualClock* clock, ExecConfig config);

  bool RunStep() override;

  /// Operator the DFS cursor is parked on; -1 when idle.
  int current() const { return current_; }

 protected:
  std::vector<int64_t> ExportStrategyState() const override {
    return {current_};
  }
  void ImportStrategyState(const std::vector<int64_t>& state) override {
    if (state.size() == 1) current_ = static_cast<int>(state[0]);
  }

 private:
  /// The lowest-id operator with processable input (a component whose
  /// source buffers received tuples, or leftover work), found among the
  /// ready candidates. Returns -1 if none.
  int FindWork();

  int current_ = -1;
};

}  // namespace dsms

#endif  // DSMS_EXEC_DFS_EXECUTOR_H_

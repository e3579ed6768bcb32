#ifndef DSMS_EXEC_GREEDY_MEMORY_EXECUTOR_H_
#define DSMS_EXEC_GREEDY_MEMORY_EXECUTOR_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/clock.h"
#include "exec/executor.h"
#include "graph/query_graph.h"

namespace dsms {

/// Memory-greedy scheduling in the spirit of Chain (Babcock et al.,
/// SIGMOD'03 — the operator-scheduling line of work the paper's conclusion
/// contrasts with timestamp management). Each activation runs the runnable
/// operator with the best expected buffer-shrinkage per step:
///
///   priority(op) = expected(tuples consumed − tuples kept buffered)
///
/// estimated online from the operator's lifetime counters (a filter that
/// has dropped 95% of its input scores ~1.0 −0.05; a sink scores 1; a
/// fan-out copy scores negatively). Ties break toward operators closer to
/// the sink (drain before admitting more), then toward lower operator ids.
///
/// Selection is a lazy max-heap over the ready candidates: the ReadyTracker
/// marks an operator dirty whenever a buffer event or a step could have
/// changed its runnability or priority; each RunStep re-pushes only dirty
/// candidates (version-stamped) and pops until a fresh, runnable entry
/// surfaces. The surfaced entry is exactly the argmax over every runnable
/// operator: priorities only change when an operator steps, and every step
/// marks the stepped operator dirty.
///
/// On-demand ETS composes exactly as with the other executors: when nothing
/// is runnable, the pending backtrack of any ETS-wanting operator is
/// resumed at its blocking source (TryEtsSweep).
///
/// This executor minimizes buffer occupancy, not latency — the
/// bench/abl_scheduler comparison quantifies the trade against DFS.
class GreedyMemoryExecutor : public Executor {
 public:
  GreedyMemoryExecutor(QueryGraph* graph, VirtualClock* clock,
                       ExecConfig config);

  bool RunStep() override;

 private:
  struct HeapEntry {
    double priority;
    int depth;
    int id;
    uint64_t version;
  };
  /// "Worse-than" ordering for std::priority_queue: highest priority first,
  /// then smallest depth-to-sink, then smallest id. The order is total, so
  /// ties in priority and depth go to the lowest id.
  struct WorseThan {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.depth != b.depth) return a.depth > b.depth;
      return a.id > b.id;
    }
  };

  /// Expected net buffered-tuple reduction of one step of `op`.
  double Priority(const Operator& op) const;

  void RefreshDirty();
  Operator* PopBest();
  void StepAndAccount(Operator* op);

  /// Distance (in arcs) from each operator to the nearest sink; the
  /// tie-breaker favoring drainage.
  std::vector<int> depth_to_sink_;

  /// Lazy-heap state.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, WorseThan> heap_;
  std::vector<uint64_t> versions_;
  std::vector<int> iwp_ids_;
};

}  // namespace dsms

#endif  // DSMS_EXEC_GREEDY_MEMORY_EXECUTOR_H_

#ifndef DSMS_OPERATORS_OPERATOR_H_
#define DSMS_OPERATORS_OPERATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/schema.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"

namespace dsms {

class StateReader;
class StateStore;
class StateWriter;
class Tracer;

/// Execution-time services an operator may need from the engine: the
/// virtual clock (used e.g. to stamp latent tuples on the fly) and the row
/// budget of one step. Kept abstract so operators are testable without a
/// full simulation.
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// Current virtual time.
  virtual Timestamp now() const = 0;

  /// Most consecutive data tuples one Step of a row operator may consume
  /// (its run; see Operator::StepRun). Executors set it from
  /// ExecConfig::batch_size; the default of 1 is tuple-at-a-time execution.
  size_t row_budget() const { return row_budget_; }
  void set_row_budget(size_t rows) { row_budget_ = rows > 0 ? rows : 1; }

 private:
  size_t row_budget_ = 1;
};

/// Trivial context with a settable clock, for unit tests and simple drivers.
class ManualExecContext : public ExecContext {
 public:
  explicit ManualExecContext(Timestamp now = 0) : now_(now) {}
  Timestamp now() const override { return now_; }
  void set_now(Timestamp now) { now_ = now; }
  void Advance(Duration d) { now_ += d; }

 private:
  Timestamp now_;
};

/// Result of one operator execution step — the `yield` and `more` state
/// variables of the paper's Basic Execution Cycle (Figure 3), plus the
/// bookkeeping the executor needs for backtracking, cost accounting, and
/// idle-waiting metrics.
struct StepResult {
  /// The operator's output buffer(s) contain tuples; the DFS Forward rule
  /// moves execution to the successor.
  bool yield = false;

  /// The operator still has processable input — for IWP operators this is
  /// the *relaxed* more condition of Figure 5.
  bool more = false;

  /// This step consumed a data tuple (a run: `run_rows` of them).
  bool processed_data = false;

  /// Data tuples consumed by a row operator's run (Operator::StepRun), each
  /// charged as one data step; 0 for a step that was not a run.
  size_t run_rows = 0;

  /// The run ended because a punctuation reached the front of the input
  /// before the row budget was spent (the ordering cut a run never crosses).
  bool run_stopped_at_punctuation = false;

  /// This step consumed a punctuation tuple.
  bool processed_punctuation = false;

  /// IWP only: the operator is idle-waiting — it holds at least one pending
  /// data tuple but cannot emit because a skewed input holds it back. This
  /// is what makes a Backtrack "want" an on-demand ETS.
  bool idle_waiting = false;

  /// When more == false on a multi-input operator: index of the input that
  /// blocks progress (the one with the minimal TSM register, necessarily
  /// empty). The modified Backtrack rule of Section 3.2 backtracks to the
  /// predecessor feeding this input. -1 when not applicable.
  int blocked_input = -1;

  /// Extra virtual time this step lost to state-store disk work under an
  /// injected disk_stall fault (storage/state_store.h). The executor adds
  /// it to the step's charged cost, so degraded-disk latency shows up in
  /// every timing metric deterministically.
  Duration storage_stall = 0;
};

/// Lifetime counters kept by every operator.
struct OperatorStats {
  uint64_t data_in = 0;
  uint64_t punctuation_in = 0;
  uint64_t data_out = 0;
  uint64_t punctuation_out = 0;
  uint64_t steps = 0;
};

/// Base class for all query operators. An operator is a node of the query
/// graph; its inputs and outputs are StreamBuffer arcs owned by the graph.
///
/// Execution contract: `Step` performs one unit of work — it consumes at
/// most one input tuple (single-input row operators: a run of up to
/// ExecContext::row_budget() data tuples, see StepRun) and appends zero or
/// more tuples to the output buffer(s) — then reports `yield`/`more` so the
/// executor can apply the Next-Operator-Selection rules. Steps must not
/// block; when no progress is possible the operator returns more=false (and
/// idle_waiting if it is an IWP operator holding blocked data).
class Operator {
 public:
  explicit Operator(std::string name);
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& name() const { return name_; }

  /// Graph-assigned identifier (index in the graph's operator table).
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  // --- wiring (done by QueryGraph / GraphBuilder) ---
  void AddInput(StreamBuffer* buffer);
  void AddOutput(StreamBuffer* buffer);
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }
  StreamBuffer* input(int index) const;
  StreamBuffer* output(int index = 0) const;

  /// Arity bounds for this operator type; QueryGraph::Validate enforces
  /// them. Defaults describe a single-input single-output operator.
  virtual int min_inputs() const { return 1; }
  virtual int max_inputs() const { return 1; }
  virtual int min_outputs() const { return 1; }
  virtual int max_outputs() const { return 1; }

  /// True for Idle-Waiting-Prone operators (union, window join): operators
  /// that may hold data they cannot emit because of cross-input skew.
  virtual bool is_iwp() const { return false; }

  /// Declared timestamp requirements, used by QueryGraph::Validate to check
  /// that latent and timestamped lineages are not mixed incorrectly:
  ///  - requires_timestamped_input: every input must carry (ordered) timestamps
  ///    (ordered-mode IWP operators);
  ///  - requires_latent_input: every input must be latent (unordered-mode
  ///    IWP operators, scenario D);
  ///  - stamps_latent: the operator assigns timestamps on the fly, so its
  ///    output is timestamped even on latent input (Section 5).
  virtual bool requires_timestamped_input() const { return false; }
  virtual bool requires_latent_input() const { return false; }
  virtual bool stamps_latent() const { return false; }

  /// Schema propagation (optional typing): given the schemas of this
  /// operator's inputs — `std::nullopt` where upstream is untyped — returns
  /// the output schema, `std::nullopt` if it cannot be derived, or an error
  /// when a declared field reference is out of bounds or ill-typed.
  /// QueryGraph::Validate folds this over the graph; untyped sources simply
  /// opt the affected subgraph out of checking. The default passes input
  /// 0's schema through (correct for filters, reorder, copy, sinks).
  virtual Result<std::optional<Schema>> DeriveSchema(
      const std::vector<std::optional<Schema>>& inputs) const;

  /// Executes one step. See class comment for the contract.
  virtual StepResult Step(ExecContext& ctx) = 0;

  /// Whether a Step could make progress right now; used by polling
  /// executors (round-robin). Default: any input buffer is non-empty.
  virtual bool HasWork() const;

  /// Whether this operator is currently holding back results that a fresh
  /// timestamp lower bound from upstream would release — the condition that
  /// makes a Backtrack walk "want" an on-demand ETS. True for idle-waiting
  /// IWP operators (blocked data in some input) and for window operators
  /// with open windows awaiting closure evidence.
  virtual bool WantsEts() const { return false; }

  /// The smallest upstream timestamp bound that would actually release
  /// held-back results (kMaxTimestamp when WantsEts() is false). The
  /// executor only generates an ETS whose value reaches this bound; a lower
  /// bound could not unblock anything and generating it anyway would
  /// busy-spin the backtrack loop (e.g. while an aggregate waits for a
  /// window end that lies in the future).
  virtual Timestamp EtsReleaseBound() const { return kMaxTimestamp; }

  /// True if any input buffer holds at least one *data* tuple.
  bool HasPendingData() const;

  // --- checkpoint support (recovery/) ---
  /// Serializes this operator's mutable execution state (everything a
  /// restart must restore to continue deterministically: counters, TSM
  /// registers, window synopses, RNG state — NOT configuration, which the
  /// plan recreates). Subclass overrides must call the base first so
  /// sections nest consistently; the base serializes OperatorStats.
  virtual void SaveState(StateWriter& w) const;

  /// Inverse of SaveState. Reads exactly what SaveState wrote; on a
  /// poisoned reader (version/logic mismatch) the operator keeps whatever
  /// state it already decoded — the enclosing checkpoint CRC has already
  /// vouched the bytes, so this cannot be hit by corruption.
  virtual void LoadState(StateReader& r);

  /// Attaches the graph's spillable state store (QueryGraph::
  /// ConfigureStateStore). Stateful operators that keep their windows in
  /// StateTables override this to bind them; the default ignores it. Called
  /// before execution and before LoadState, never mid-run.
  virtual void BindStateStore(StateStore* store) { (void)store; }

  const OperatorStats& stats() const { return stats_; }

  /// Execution tracer for punctuation-path hooks; null (the default) means
  /// tracing is off and hooks are a single branch.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Debug string: "name(id) [class]".
  virtual std::string ToString() const;

 protected:
  /// Helpers maintaining stats_; subclasses consume/emit through these.
  Tuple TakeInput(int index);
  void Emit(Tuple tuple);           // to every output buffer (clones if >1)
  void EmitTo(int index, Tuple tuple);

  /// The one data path of a single-input row operator (docs/batching.md):
  /// takes one punctuation from input 0 and hands it to `on_punctuation`,
  /// or takes a run of up to ctx.row_budget() consecutive data tuples and
  /// hands each to `on_row` in arrival order. A run stops early at a
  /// punctuation (it never crosses an ordering cut) or an empty input.
  /// Counts one step per tuple taken, so OperatorStats do not depend on the
  /// budget.
  template <typename OnRow, typename OnPunctuation>
  StepResult StepRun(ExecContext& ctx, OnRow&& on_row,
                     OnPunctuation&& on_punctuation);

  OperatorStats stats_;
  Tracer* tracer_ = nullptr;

 private:
  std::string name_;
  int id_ = -1;
  std::vector<StreamBuffer*> inputs_;
  std::vector<StreamBuffer*> outputs_;
};

/// Returns true if every output buffer of `op` is... (helper used by
/// implementations): any output non-empty => yield.
bool AnyOutputNonEmpty(const Operator& op);

template <typename OnRow, typename OnPunctuation>
StepResult Operator::StepRun(ExecContext& ctx, OnRow&& on_row,
                             OnPunctuation&& on_punctuation) {
  StreamBuffer* in = input(0);
  StepResult result;
  if (in->empty()) {
    ++stats_.steps;
  } else if (in->Front().is_punctuation()) {
    ++stats_.steps;
    result.processed_punctuation = true;
    on_punctuation(TakeInput(0));
  } else {
    const size_t budget = ctx.row_budget();
    size_t rows = 0;
    do {
      ++stats_.steps;
      on_row(TakeInput(0));
      ++rows;
    } while (rows < budget && !in->empty() && in->Front().is_data());
    result.processed_data = true;
    result.run_rows = rows;
    result.run_stopped_at_punctuation = rows < budget && !in->empty();
  }
  result.more = !in->empty();
  result.yield = AnyOutputNonEmpty(*this);
  return result;
}

}  // namespace dsms

#endif  // DSMS_OPERATORS_OPERATOR_H_

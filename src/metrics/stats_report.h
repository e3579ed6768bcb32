#ifndef DSMS_METRICS_STATS_REPORT_H_
#define DSMS_METRICS_STATS_REPORT_H_

#include <ostream>
#include <string>

#include "graph/query_graph.h"
#include "metrics/order_validator.h"

namespace dsms {

class MetricsRegistry;

/// Renders a per-operator table of lifetime counters (data/punctuation in
/// and out, steps) plus current buffer occupancy, per-arc high-water marks
/// and shed counts — the "EXPLAIN ANALYZE" of this little DSMS. Used by
/// examples and handy in tests.
void PrintOperatorStats(const QueryGraph& graph, std::ostream& os);

/// Same, as a string.
std::string OperatorStatsString(const QueryGraph& graph);

/// Publishes the same per-operator counters into `registry` under
/// "op.<name>.<counter>" names (point-in-time copies) — the unified
/// snapshot path shared with ExecStats / ScenarioResult / ExperimentReport.
void PublishOperatorStats(const QueryGraph& graph, MetricsRegistry* registry);

/// Renders the graph's degraded-mode activity: sources running on lease
/// fallback bounds, shed/vetoed pushes, and (when `validator` is non-null)
/// the order-violation tally with its dead-letter sample. Empty string when
/// nothing degraded — callers can print it unconditionally.
std::string RobustnessReportString(const QueryGraph& graph,
                                   const OrderValidator* validator);

}  // namespace dsms

#endif  // DSMS_METRICS_STATS_REPORT_H_

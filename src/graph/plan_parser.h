#ifndef DSMS_GRAPH_PLAN_PARSER_H_
#define DSMS_GRAPH_PLAN_PARSER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "graph/query_graph.h"

namespace dsms {

/// A parsed textual query plan: the validated graph plus a name -> operator
/// index for attaching feeds, callbacks and metrics.
struct ParsedPlan {
  std::unique_ptr<QueryGraph> graph;
  std::map<std::string, Operator*> operators;

  Operator* Find(const std::string& name) const;
};

/// Parses the small declarative plan language that stands in for Stream
/// Mill's ESL. One statement per line; `#` starts a comment. Operators must
/// be declared before they are referenced. Grammar (arguments are
/// `key=value` pairs; `in=` takes a comma-separated list of producers):
///
///   stream    NAME [ts=internal|external|latent] [skew=DUR]
///                  [granularity=DUR]        (internal stamp quantization,
///                                            >= 1us; ts=internal only)
///                  [schema=name:type,name:type,...]
///                  (types: int64,double,string,bool; declaring a schema
///                   turns on type checking for the downstream pipeline)
///   filter    NAME in=P (selectivity=X [seed=N] | field=N op=CMP value=V)
///                  CMP one of lt,le,gt,ge,eq,ne
///   project   NAME in=P fields=0,2,...
///   union     NAME in=P1,P2[,...]          (ordered mode inferred from the
///                                           sources' timestamp kinds)
///   join      NAME in=L,R [window=DUR] [left_window=DUR] [right_window=DUR]
///                  [left_field=N right_field=M]   (equi-join; else cross)
///   mjoin     NAME in=A,B,C[,...] window=DUR [key=N]
///                  (n-ary window join; key= makes it an all-inputs
///                   equi-join on value index N, else cross product)
///   aggregate NAME in=P fn=count|sum|avg|min|max [field=N] window=DUR
///                  [slide=DUR]
///   gaggregate NAME in=P fn=... key=N [field=M] window=DUR [slide=DUR]
///                  (GROUP BY value index N)
///   reorder   NAME in=P slack=DUR
///   copy      NAME in=P                     (fan-out; connect by listing it
///                                            as `in=` of several consumers)
///   sink      NAME in=P
///
/// Durations: integer with unit suffix us|ms|s|m (bare integers are
/// microseconds), e.g. `window=2s`, `slack=50ms`.
///
/// Each statement accepts only the keys listed for it; any other key fails
/// with `line N: unknown TYPE key 'KEY'`. Returns the validated plan or the
/// first parse/validation error with its line number.
Result<ParsedPlan> ParsePlan(std::string_view text);

/// Parses "2s" / "150ms" / "50us" / "42" (microseconds) / "1m".
Status ParseDuration(std::string_view text, Duration* out);

/// The syntax of one statement type of the plan or experiment language: its
/// keyword, whether a NAME token follows it, the keys it accepts, and
/// whether it may appear at most once in a document. A misspelled or
/// retired key fails the parse rather than silently leaving its knob at the
/// default (a dropped `lease=` disarms liveness; a dropped join `window=`
/// runs a 1 s window).
struct StatementSyntax {
  std::string_view type;
  bool has_name;
  std::vector<std::string_view> keys;
  bool unique = false;
};

/// The entry of `table` whose keyword is the first word of `line` (stripped
/// of comment and surrounding whitespace), or nullptr.
const StatementSyntax* FindStatementSyntax(
    std::span<const StatementSyntax> table, std::string_view line);

/// One tokenized statement: `TYPE [NAME] key=value ...`.
struct Statement {
  int line = 0;
  std::string type;
  std::string name;
  std::map<std::string, std::string> args;

  /// Typed reads of argument `key`. An absent key yields `default_value`,
  /// or `line N: missing KEY=` when `required`; a value that does not parse
  /// fails with the line number.
  Status GetDuration(const std::string& key, Duration default_value,
                     bool required, Duration* out) const;
  Status GetDouble(const std::string& key, double default_value,
                   bool required, double* out) const;
  /// Integers are bounded: a value outside [`min`, `max`] fails with `line
  /// N: KEY must be >= MIN` (or `<= MAX`), so a key read into an `int`
  /// passes `max` = INT_MAX and can neither wrap nor reach a downstream
  /// check. Every integer key of both languages is read here.
  Status GetInt(const std::string& key, int64_t default_value, bool required,
                int64_t min, int64_t max, int64_t* out) const;
};

/// Tokenizes `line` (stripped of comment and surrounding whitespace) as a
/// statement of `syntax`. Fails with `line N: malformed argument 'TOKEN'`
/// for a token that is not `key=value`, with `line N: unknown TYPE key
/// 'KEY'` for a key outside `syntax.keys`, and with `line N: repeated TYPE
/// key 'KEY'` for a key given twice.
Status ParseStatement(int line_number, std::string_view line,
                      const StatementSyntax& syntax, Statement* out);

}  // namespace dsms

#endif  // DSMS_GRAPH_PLAN_PARSER_H_

#include "graph/plan_parser.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "core/value.h"
#include "graph/graph_builder.h"
#include "operators/filter.h"
#include "operators/grouped_aggregate.h"
#include "operators/multiway_join.h"
#include "operators/source.h"
#include "operators/window_aggregate.h"
#include "operators/window_join.h"

namespace dsms {

Operator* ParsedPlan::Find(const std::string& name) const {
  auto it = operators.find(name);
  return it == operators.end() ? nullptr : it->second;
}

Status ParseDuration(std::string_view text, Duration* out) {
  text = StripWhitespace(text);
  if (text.empty()) return InvalidArgumentError("empty duration");
  Duration multiplier = 1;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    multiplier = 1;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    multiplier = kMillisecond;
    text.remove_suffix(2);
  } else if (text.back() == 's') {
    multiplier = kSecond;
    text.remove_suffix(1);
  } else if (text.back() == 'm') {
    multiplier = 60 * kSecond;
    text.remove_suffix(1);
  }
  double number = 0.0;
  if (!ParseDouble(text, &number) || number < 0) {
    return InvalidArgumentError("bad duration: '" + std::string(text) + "'");
  }
  *out = static_cast<Duration>(number * static_cast<double>(multiplier) + 0.5);
  return OkStatus();
}

namespace {

struct Statement {
  int line = 0;
  std::string type;
  std::string name;
  std::vector<std::string> inputs;
  std::map<std::string, std::string> args;
};

Status ParseStatement(int line_number, std::string_view line,
                      Statement* statement) {
  std::vector<std::string> tokens;
  for (const std::string& piece : StrSplit(line, ' ')) {
    std::string_view token = StripWhitespace(piece);
    if (!token.empty()) tokens.emplace_back(token);
  }
  if (tokens.size() < 2) {
    return InvalidArgumentError(
        StrFormat("line %d: expected 'TYPE NAME key=value ...'", line_number));
  }
  statement->line = line_number;
  statement->type = tokens[0];
  statement->name = tokens[1];
  for (size_t i = 2; i < tokens.size(); ++i) {
    size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 > tokens[i].size()) {
      return InvalidArgumentError(StrFormat(
          "line %d: malformed argument '%s'", line_number, tokens[i].c_str()));
    }
    std::string key = tokens[i].substr(0, eq);
    std::string value = tokens[i].substr(eq + 1);
    if (key == "in") {
      for (const std::string& input : StrSplit(value, ',')) {
        if (!input.empty()) statement->inputs.push_back(input);
      }
    } else {
      statement->args[key] = value;
    }
  }
  return OkStatus();
}

class PlanAssembler {
 public:
  Result<ParsedPlan> Assemble(const std::vector<Statement>& statements);

 private:
  Status AddStatement(const Statement& s);
  Status ResolveInputs(const Statement& s, std::vector<Operator*>* inputs);
  /// True if every source feeding `name` is latent (IWP ordered inference).
  Status UpstreamLatent(const Statement& s,
                        const std::vector<Operator*>& inputs, bool* latent);

  Status GetDuration(const Statement& s, const std::string& key,
                     Duration default_value, bool required, Duration* out);
  Status GetDouble(const Statement& s, const std::string& key,
                   double default_value, bool required, double* out);
  Status GetInt(const Statement& s, const std::string& key,
                int64_t default_value, bool required, int64_t* out);

  GraphBuilder builder_;
  std::map<std::string, Operator*> by_name_;
  std::map<std::string, bool> latent_;  // name -> all-latent lineage
};

Status PlanAssembler::GetDuration(const Statement& s, const std::string& key,
                                  Duration default_value, bool required,
                                  Duration* out) {
  auto it = s.args.find(key);
  if (it == s.args.end()) {
    if (required) {
      return InvalidArgumentError(
          StrFormat("line %d: missing %s=", s.line, key.c_str()));
    }
    *out = default_value;
    return OkStatus();
  }
  Status status = ParseDuration(it->second, out);
  if (!status.ok()) {
    return InvalidArgumentError(
        StrFormat("line %d: %s", s.line, status.message().c_str()));
  }
  return OkStatus();
}

Status PlanAssembler::GetDouble(const Statement& s, const std::string& key,
                                double default_value, bool required,
                                double* out) {
  auto it = s.args.find(key);
  if (it == s.args.end()) {
    if (required) {
      return InvalidArgumentError(
          StrFormat("line %d: missing %s=", s.line, key.c_str()));
    }
    *out = default_value;
    return OkStatus();
  }
  if (!ParseDouble(it->second, out)) {
    return InvalidArgumentError(StrFormat("line %d: bad number for %s",
                                          s.line, key.c_str()));
  }
  return OkStatus();
}

Status PlanAssembler::GetInt(const Statement& s, const std::string& key,
                             int64_t default_value, bool required,
                             int64_t* out) {
  auto it = s.args.find(key);
  if (it == s.args.end()) {
    if (required) {
      return InvalidArgumentError(
          StrFormat("line %d: missing %s=", s.line, key.c_str()));
    }
    *out = default_value;
    return OkStatus();
  }
  if (!ParseInt64(it->second, out)) {
    return InvalidArgumentError(StrFormat("line %d: bad integer for %s",
                                          s.line, key.c_str()));
  }
  return OkStatus();
}

Status PlanAssembler::ResolveInputs(const Statement& s,
                                    std::vector<Operator*>* inputs) {
  for (const std::string& name : s.inputs) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      return InvalidArgumentError(StrFormat(
          "line %d: unknown input '%s' (operators must be declared before "
          "use)",
          s.line, name.c_str()));
    }
    inputs->push_back(it->second);
  }
  return OkStatus();
}

Status PlanAssembler::UpstreamLatent(const Statement& s,
                                     const std::vector<Operator*>& inputs,
                                     bool* latent) {
  bool any_latent = false;
  bool any_timestamped = false;
  for (const std::string& name : s.inputs) {
    if (latent_[name]) {
      any_latent = true;
    } else {
      any_timestamped = true;
    }
  }
  (void)inputs;
  if (any_latent && any_timestamped) {
    return InvalidArgumentError(StrFormat(
        "line %d: operator %s mixes latent and timestamped inputs", s.line,
        s.name.c_str()));
  }
  *latent = any_latent;
  return OkStatus();
}

Status PlanAssembler::AddStatement(const Statement& s) {
  if (by_name_.count(s.name) > 0) {
    return InvalidArgumentError(
        StrFormat("line %d: duplicate operator name '%s'", s.line,
                  s.name.c_str()));
  }
  std::vector<Operator*> inputs;
  DSMS_RETURN_IF_ERROR(ResolveInputs(s, &inputs));

  Operator* op = nullptr;
  bool latent = false;

  if (s.type == "stream") {
    if (!inputs.empty()) {
      return InvalidArgumentError(
          StrFormat("line %d: stream takes no in=", s.line));
    }
    TimestampKind kind = TimestampKind::kInternal;
    auto it = s.args.find("ts");
    if (it != s.args.end()) {
      if (it->second == "internal") {
        kind = TimestampKind::kInternal;
      } else if (it->second == "external") {
        kind = TimestampKind::kExternal;
      } else if (it->second == "latent") {
        kind = TimestampKind::kLatent;
      } else {
        return InvalidArgumentError(
            StrFormat("line %d: bad ts= value '%s'", s.line,
                      it->second.c_str()));
      }
    }
    Duration skew = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "skew", 0, false, &skew));
    if (skew < 0) {
      return InvalidArgumentError(
          StrFormat("line %d: skew must be >= 0", s.line));
    }
    // Validate here, not in Source::set_timestamp_granularity: a bad value
    // in a config file is the user's mistake (a parse error), not a
    // programming error, so it must surface as a Status — never the
    // DSMS_CHECK abort the setter keeps for real API misuse.
    Duration granularity = 1;
    DSMS_RETURN_IF_ERROR(
        GetDuration(s, "granularity", 1, false, &granularity));
    if (granularity < 1) {
      return InvalidArgumentError(StrFormat(
          "line %d: granularity must be >= 1 microsecond (got %lld)",
          s.line, static_cast<long long>(granularity)));
    }
    if (kind != TimestampKind::kInternal && granularity != 1) {
      return InvalidArgumentError(StrFormat(
          "line %d: granularity only applies to ts=internal streams",
          s.line));
    }
    Source* source = builder_.AddSource(s.name, kind, skew);
    source->set_timestamp_granularity(granularity);
    auto schema_arg = s.args.find("schema");
    if (schema_arg != s.args.end()) {
      std::vector<Field> fields;
      for (const std::string& piece : StrSplit(schema_arg->second, ',')) {
        std::vector<std::string> parts = StrSplit(piece, ':');
        if (parts.size() != 2 || parts[0].empty()) {
          return InvalidArgumentError(StrFormat(
              "line %d: bad schema field '%s' (want name:type)", s.line,
              piece.c_str()));
        }
        ValueType type;
        if (parts[1] == "int64") {
          type = ValueType::kInt64;
        } else if (parts[1] == "double") {
          type = ValueType::kDouble;
        } else if (parts[1] == "string") {
          type = ValueType::kString;
        } else if (parts[1] == "bool") {
          type = ValueType::kBool;
        } else {
          return InvalidArgumentError(StrFormat(
              "line %d: unknown field type '%s'", s.line, parts[1].c_str()));
        }
        fields.push_back(Field{parts[0], type});
      }
      source->set_schema(Schema(std::move(fields)));
    }
    op = source;
    latent = kind == TimestampKind::kLatent;
  } else if (s.type == "filter") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: filter needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    if (s.args.count("selectivity") > 0) {
      double selectivity = 0.0;
      DSMS_RETURN_IF_ERROR(
          GetDouble(s, "selectivity", 0.0, true, &selectivity));
      if (selectivity < 0.0 || selectivity > 1.0) {
        return InvalidArgumentError(
            StrFormat("line %d: selectivity out of [0,1]", s.line));
      }
      int64_t seed = 1;
      DSMS_RETURN_IF_ERROR(GetInt(s, "seed", 1, false, &seed));
      op = builder_.AddRandomDropFilter(s.name, selectivity,
                                        static_cast<uint64_t>(seed));
    } else {
      int64_t field = 0;
      double value = 0.0;
      DSMS_RETURN_IF_ERROR(GetInt(s, "field", 0, true, &field));
      DSMS_RETURN_IF_ERROR(GetDouble(s, "value", 0.0, true, &value));
      auto it = s.args.find("op");
      if (it == s.args.end()) {
        return InvalidArgumentError(
            StrFormat("line %d: missing op=", s.line));
      }
      const std::string& cmp = it->second;
      int f = static_cast<int>(field);
      Filter::Predicate predicate;
      if (cmp == "lt") {
        predicate = [f, value](const Tuple& t) {
          return t.value(f).AsDouble() < value;
        };
      } else if (cmp == "le") {
        predicate = [f, value](const Tuple& t) {
          return t.value(f).AsDouble() <= value;
        };
      } else if (cmp == "gt") {
        predicate = [f, value](const Tuple& t) {
          return t.value(f).AsDouble() > value;
        };
      } else if (cmp == "ge") {
        predicate = [f, value](const Tuple& t) {
          return t.value(f).AsDouble() >= value;
        };
      } else if (cmp == "eq") {
        predicate = [f, value](const Tuple& t) {
          return t.value(f).AsDouble() == value;
        };
      } else if (cmp == "ne") {
        predicate = [f, value](const Tuple& t) {
          return t.value(f).AsDouble() != value;
        };
      } else {
        return InvalidArgumentError(StrFormat(
            "line %d: bad op= '%s' (want lt,le,gt,ge,eq,ne)", s.line,
            cmp.c_str()));
      }
      Filter* filter = builder_.AddFilter(s.name, std::move(predicate));
      filter->set_required_numeric_field(f);
      op = filter;
    }
  } else if (s.type == "project") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: project needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    auto it = s.args.find("fields");
    if (it == s.args.end()) {
      return InvalidArgumentError(
          StrFormat("line %d: missing fields=", s.line));
    }
    std::vector<int> fields;
    for (const std::string& piece : StrSplit(it->second, ',')) {
      int64_t index = 0;
      if (!ParseInt64(piece, &index) || index < 0) {
        return InvalidArgumentError(
            StrFormat("line %d: bad field index '%s'", s.line,
                      piece.c_str()));
      }
      fields.push_back(static_cast<int>(index));
    }
    op = builder_.AddProject(s.name, std::move(fields));
  } else if (s.type == "union") {
    if (inputs.size() < 2) {
      return InvalidArgumentError(
          StrFormat("line %d: union needs >= 2 inputs", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    op = builder_.AddUnion(s.name, /*ordered=*/!latent);
  } else if (s.type == "join") {
    if (inputs.size() != 2) {
      return InvalidArgumentError(
          StrFormat("line %d: join needs exactly 2 inputs", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    Duration window = 0;
    DSMS_RETURN_IF_ERROR(
        GetDuration(s, "window", kSecond, false, &window));
    Duration left_window = 0;
    Duration right_window = 0;
    DSMS_RETURN_IF_ERROR(
        GetDuration(s, "left_window", window, false, &left_window));
    DSMS_RETURN_IF_ERROR(
        GetDuration(s, "right_window", window, false, &right_window));
    WindowJoin::Predicate predicate;  // null = cross product
    int equi_left = -1;
    int equi_right = -1;
    if (s.args.count("left_field") > 0 || s.args.count("right_field") > 0) {
      int64_t left_field = 0;
      int64_t right_field = 0;
      DSMS_RETURN_IF_ERROR(GetInt(s, "left_field", 0, true, &left_field));
      DSMS_RETURN_IF_ERROR(GetInt(s, "right_field", 0, true, &right_field));
      equi_left = static_cast<int>(left_field);
      equi_right = static_cast<int>(right_field);
      predicate = WindowJoin::EquiJoin(equi_left, equi_right);
    }
    WindowJoin* join =
        builder_.AddWindowJoin(s.name, left_window, right_window,
                               std::move(predicate), /*ordered=*/!latent);
    if (equi_left >= 0) join->set_equi_fields(equi_left, equi_right);
    op = join;
    latent = false;  // Unordered joins stamp on the fly.
  } else if (s.type == "mjoin") {
    if (inputs.size() < 2) {
      return InvalidArgumentError(
          StrFormat("line %d: mjoin needs >= 2 inputs", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    Duration window = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "window", 0, true, &window));
    std::vector<Duration> windows(inputs.size(), window);
    MultiWayJoin::Predicate predicate;  // null = cross product
    int equi_field = -1;
    if (s.args.count("key") > 0) {
      int64_t key = 0;
      DSMS_RETURN_IF_ERROR(GetInt(s, "key", 0, true, &key));
      equi_field = static_cast<int>(key);
      predicate = MultiWayJoin::EquiJoin(equi_field);
    }
    MultiWayJoin* join = builder_.AddMultiWayJoin(
        s.name, std::move(windows), std::move(predicate),
        /*ordered=*/!latent);
    if (equi_field >= 0) join->set_equi_field(equi_field);
    op = join;
    latent = false;  // Unordered joins stamp on the fly.
  } else if (s.type == "gaggregate") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: gaggregate needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    auto it = s.args.find("fn");
    if (it == s.args.end()) {
      return InvalidArgumentError(StrFormat("line %d: missing fn=", s.line));
    }
    AggKind kind;
    if (it->second == "count") {
      kind = AggKind::kCount;
    } else if (it->second == "sum") {
      kind = AggKind::kSum;
    } else if (it->second == "avg") {
      kind = AggKind::kAvg;
    } else if (it->second == "min") {
      kind = AggKind::kMin;
    } else if (it->second == "max") {
      kind = AggKind::kMax;
    } else {
      return InvalidArgumentError(
          StrFormat("line %d: bad fn= '%s'", s.line, it->second.c_str()));
    }
    int64_t key = 0;
    DSMS_RETURN_IF_ERROR(GetInt(s, "key", 0, true, &key));
    int64_t field = 0;
    DSMS_RETURN_IF_ERROR(GetInt(s, "field", 0, false, &field));
    Duration window = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "window", 0, true, &window));
    Duration slide = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "slide", window, false, &slide));
    op = builder_.AddGroupedWindowAggregate(
        s.name, kind, static_cast<int>(key), static_cast<int>(field), window,
        slide);
    latent = false;  // Grouped aggregates stamp on the fly.
  } else if (s.type == "aggregate") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: aggregate needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    auto it = s.args.find("fn");
    if (it == s.args.end()) {
      return InvalidArgumentError(StrFormat("line %d: missing fn=", s.line));
    }
    AggKind kind;
    if (it->second == "count") {
      kind = AggKind::kCount;
    } else if (it->second == "sum") {
      kind = AggKind::kSum;
    } else if (it->second == "avg") {
      kind = AggKind::kAvg;
    } else if (it->second == "min") {
      kind = AggKind::kMin;
    } else if (it->second == "max") {
      kind = AggKind::kMax;
    } else {
      return InvalidArgumentError(
          StrFormat("line %d: bad fn= '%s'", s.line, it->second.c_str()));
    }
    int64_t field = 0;
    DSMS_RETURN_IF_ERROR(GetInt(s, "field", 0, false, &field));
    Duration window = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "window", 0, true, &window));
    Duration slide = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "slide", window, false, &slide));
    op = builder_.AddWindowAggregate(s.name, kind, static_cast<int>(field),
                                     window, slide);
    latent = false;  // Aggregates stamp on the fly.
  } else if (s.type == "reorder") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: reorder needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    Duration slack = 0;
    DSMS_RETURN_IF_ERROR(GetDuration(s, "slack", 0, true, &slack));
    op = builder_.AddReorder(s.name, slack);
  } else if (s.type == "copy") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: copy needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    op = builder_.AddCopy(s.name);
  } else if (s.type == "sink") {
    if (inputs.size() != 1) {
      return InvalidArgumentError(
          StrFormat("line %d: sink needs exactly one input", s.line));
    }
    DSMS_RETURN_IF_ERROR(UpstreamLatent(s, inputs, &latent));
    op = builder_.AddSink(s.name);
  } else {
    return InvalidArgumentError(StrFormat(
        "line %d: unknown statement type '%s'", s.line, s.type.c_str()));
  }

  for (Operator* input : inputs) builder_.Connect(input, op);
  by_name_[s.name] = op;
  latent_[s.name] = latent;
  return OkStatus();
}

Result<ParsedPlan> PlanAssembler::Assemble(
    const std::vector<Statement>& statements) {
  for (const Statement& s : statements) {
    Status status = AddStatement(s);
    if (!status.ok()) return status;
  }
  Result<std::unique_ptr<QueryGraph>> graph = builder_.Build();
  if (!graph.ok()) return graph.status();
  ParsedPlan plan;
  plan.graph = std::move(graph).value();
  plan.operators = std::move(by_name_);
  return plan;
}

}  // namespace

Result<ParsedPlan> ParsePlan(std::string_view text) {
  std::vector<Statement> statements;
  int line_number = 0;
  for (const std::string& raw_line : StrSplit(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = StripWhitespace(line);
    if (line.empty()) continue;
    Statement statement;
    Status status = ParseStatement(line_number, line, &statement);
    if (!status.ok()) return status;
    statements.push_back(std::move(statement));
  }
  if (statements.empty()) {
    return InvalidArgumentError("empty plan");
  }
  PlanAssembler assembler;
  return assembler.Assemble(statements);
}

}  // namespace dsms

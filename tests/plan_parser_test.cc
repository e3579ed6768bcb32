#include <string>

#include <gtest/gtest.h>

#include "common/time.h"
#include "graph/plan_parser.h"
#include "operators/reorder.h"
#include "operators/source.h"
#include "operators/union_op.h"
#include "operators/window_aggregate.h"
#include "operators/window_join.h"
#include "sim/experiment_spec.h"

namespace dsms {
namespace {

constexpr char kPaperPlan[] = R"(
# The experimental query of Section 6 (Figure 4 plus selections).
stream S1 ts=internal
stream S2 ts=internal
filter F1 in=S1 selectivity=0.95 seed=7
filter F2 in=S2 selectivity=0.95 seed=8
union U in=F1,F2
sink OUT in=U
)";

TEST(ParseDurationTest, Units) {
  Duration d = 0;
  EXPECT_TRUE(ParseDuration("50us", &d).ok());
  EXPECT_EQ(d, 50);
  EXPECT_TRUE(ParseDuration("2ms", &d).ok());
  EXPECT_EQ(d, 2000);
  EXPECT_TRUE(ParseDuration("3s", &d).ok());
  EXPECT_EQ(d, 3 * kSecond);
  EXPECT_TRUE(ParseDuration("1m", &d).ok());
  EXPECT_EQ(d, 60 * kSecond);
  EXPECT_TRUE(ParseDuration("42", &d).ok());
  EXPECT_EQ(d, 42);
  EXPECT_TRUE(ParseDuration("1.5s", &d).ok());
  EXPECT_EQ(d, 1500000);
}

TEST(ParseDurationTest, Rejects) {
  Duration d = 0;
  EXPECT_FALSE(ParseDuration("", &d).ok());
  EXPECT_FALSE(ParseDuration("abc", &d).ok());
  EXPECT_FALSE(ParseDuration("-5s", &d).ok());
  EXPECT_FALSE(ParseDuration("5x", &d).ok());
}

TEST(PlanParserTest, ParsesPaperPlan) {
  auto plan = ParsePlan(kPaperPlan);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->graph->num_operators(), 6);
  EXPECT_NE(plan->Find("U"), nullptr);
  EXPECT_EQ(plan->Find("missing"), nullptr);
  auto* u = dynamic_cast<Union*>(plan->Find("U"));
  ASSERT_NE(u, nullptr);
  EXPECT_TRUE(u->ordered());
  auto* s1 = dynamic_cast<Source*>(plan->Find("S1"));
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->timestamp_kind(), TimestampKind::kInternal);
}

TEST(PlanParserTest, LatentSourcesInferUnorderedUnion) {
  auto plan = ParsePlan(R"(
stream S1 ts=latent
stream S2 ts=latent
union U in=S1,S2
sink OUT in=U
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto* u = dynamic_cast<Union*>(plan->Find("U"));
  ASSERT_NE(u, nullptr);
  EXPECT_FALSE(u->ordered());
}

TEST(PlanParserTest, ExternalStreamWithSkew) {
  auto plan = ParsePlan(R"(
stream S ts=external skew=100ms
sink OUT in=S
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto* s = dynamic_cast<Source*>(plan->Find("S"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->timestamp_kind(), TimestampKind::kExternal);
  EXPECT_EQ(s->skew_bound(), 100 * kMillisecond);
}

TEST(PlanParserTest, JoinWithEquiFields) {
  auto plan = ParsePlan(R"(
stream L
stream R
join J in=L,R window=2s left_field=0 right_field=1
sink OUT in=J
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto* join = dynamic_cast<WindowJoin*>(plan->Find("J"));
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->ordered());
}

TEST(PlanParserTest, AggregateStatement) {
  auto plan = ParsePlan(R"(
stream S
aggregate A in=S fn=avg field=0 window=1s slide=500ms
sink OUT in=A
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto* agg = dynamic_cast<WindowAggregate*>(plan->Find("A"));
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->window(), kSecond);
  EXPECT_EQ(agg->slide(), 500 * kMillisecond);
}

TEST(PlanParserTest, ReorderAndPredicateFilterAndProjectAndCopy) {
  auto plan = ParsePlan(R"(
stream S
reorder R in=S slack=50ms
filter F in=R field=0 op=ge value=10
project P in=F fields=0
copy C in=P
sink O1 in=C
sink O2 in=C
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto* reorder = dynamic_cast<Reorder*>(plan->Find("R"));
  ASSERT_NE(reorder, nullptr);
  EXPECT_EQ(reorder->slack(), 50 * kMillisecond);
}

TEST(PlanParserTest, ErrorUnknownInput) {
  auto plan = ParsePlan("sink OUT in=NOPE\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("NOPE"), std::string::npos);
  EXPECT_NE(plan.status().message().find("line 1"), std::string::npos);
}

TEST(PlanParserTest, ErrorDuplicateName) {
  auto plan = ParsePlan("stream S\nstream S\nsink O in=S\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("duplicate"), std::string::npos);
}

TEST(PlanParserTest, ErrorUnknownType) {
  auto plan = ParsePlan("wibble W\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("wibble"), std::string::npos);
}

TEST(PlanParserTest, ErrorBadTsKind) {
  EXPECT_FALSE(ParsePlan("stream S ts=wallclock\nsink O in=S\n").ok());
}

TEST(PlanParserTest, ErrorUnionNeedsTwoInputs) {
  EXPECT_FALSE(ParsePlan("stream S\nunion U in=S\nsink O in=U\n").ok());
}

TEST(PlanParserTest, ErrorMixedLineages) {
  auto plan = ParsePlan(R"(
stream A ts=internal
stream B ts=latent
union U in=A,B
sink O in=U
)");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("mixes"), std::string::npos);
}

TEST(PlanParserTest, ErrorMissingRequiredArg) {
  EXPECT_FALSE(ParsePlan("stream S\naggregate A in=S fn=count\nsink O in=A\n")
                   .ok());  // missing window=
}

TEST(PlanParserTest, ErrorBadSelectivity) {
  EXPECT_FALSE(
      ParsePlan("stream S\nfilter F in=S selectivity=1.5\nsink O in=F\n")
          .ok());
}

TEST(PlanParserTest, ErrorMalformedArgument) {
  auto plan = ParsePlan("stream S =bad\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("malformed"), std::string::npos);
}

TEST(PlanParserTest, ErrorRepeatedKey) {
  // A repeated key is rejected rather than letting the last value win: a
  // second in= would drop the first producer, a second window= the first
  // window. Experiment statements share the tokenizer.
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"stream A\nstream B\nunion U in=A in=B\nsink O in=U\n",
       "line 3: repeated union key 'in'"},
      {"stream A\nstream B\njoin J in=A,B window=1s window=2s\n"
       "sink O in=J\n",
       "line 3: repeated join key 'window'"},
  };
  for (const auto& c : kCases) {
    auto plan = ParsePlan(c.text);
    ASSERT_FALSE(plan.ok()) << c.text;
    EXPECT_EQ(plan.status().message(), c.error);
  }
  auto experiment = ParseExperiment(
      "stream S\nsink O in=S\nfeed S rate=5 seed=1 seed=2\n");
  ASSERT_FALSE(experiment.ok());
  EXPECT_EQ(experiment.status().message(), "line 3: repeated feed key 'seed'");
}

TEST(PlanParserTest, ErrorIntegerOutOfRange) {
  // An integer key outside its range fails the parse. Before the range
  // check, a negative field index parsed and aborted at the first probe,
  // and a value above INT_MAX wrapped when cast to int (quantum=4294967296
  // became 0). The statement sits on line 3 of an otherwise valid document.
  const struct {
    const char* statement;
    const char* error;
  } kCases[] = {
      {"filter X in=A field=-1 op=lt value=1",
       "line 3: field must be >= 0"},
      {"join X in=A,B left_field=-1 right_field=0",
       "line 3: left_field must be >= 0"},
      {"join X in=A,B left_field=0 right_field=2147483648",
       "line 3: right_field must be <= 2147483647"},
      {"mjoin X in=A,B window=1s key=-1", "line 3: key must be >= 0"},
      {"gaggregate X in=A fn=count key=-1 window=1s",
       "line 3: key must be >= 0"},
      {"gaggregate X in=A fn=sum key=0 field=-1 window=1s",
       "line 3: field must be >= 0"},
      {"aggregate X in=A fn=sum field=4294967296 window=1s",
       "line 3: field must be <= 2147483647"},
      {"project X in=A fields=0,2147483648",
       "line 3: bad field index '2147483648'"},
      {"run executor=round-robin quantum=4294967296",
       "line 3: quantum must be <= 2147483647"},
      {"run executor=round-robin quantum=0", "line 3: quantum must be >= 1"},
      {"run buffer_cap=-1", "line 3: buffer_cap must be >= 0"},
      {"feed A rate=5 payload=randint fields=4294967296",
       "line 3: fields must be <= 2147483647"},
      {"fault A kind=burst factor=4294967296",
       "line 3: factor must be <= 2147483647"},
      {"batch size=0", "line 3: size must be >= 1"},
      {"checkpoint horizon=1s keep=4294967296",
       "line 3: keep must be <= 2147483647"},
      {"netfault kind=split count=4294967296",
       "line 3: count must be <= 2147483647"},
      {"netfault kind=split stale=4294967296",
       "line 3: stale must be <= 2147483647"},
  };
  for (const auto& c : kCases) {
    auto experiment = ParseExperiment(std::string("stream A\nstream B\n") +
                                          c.statement +
                                          "\nunion U in=A,B\nsink O in=U\n",
                                      /*require_feeds=*/false);
    EXPECT_FALSE(experiment.ok()) << c.statement;
    if (experiment.ok()) continue;
    EXPECT_EQ(experiment.status().message(), c.error);
  }
}

TEST(PlanParserTest, ErrorUnknownKeyInEveryStatement) {
  // A misspelled key fails the parse in every statement type, instead of
  // silently leaving its knob at the default (`windw=2s` would run a 1 s
  // join window). The key sits on line 3; each plan is otherwise valid.
  struct Case {
    const char* statement;
    const char* rest;
    const char* type;
    const char* key;
  };
  const Case kCases[] = {
      {"stream C ts=internal skw=1s", "union U in=A,B,C\nsink O in=U",
       "stream", "skw"},
      {"filter X in=A selectivity=0.5 sed=3", "union U in=X,B\nsink O in=U",
       "filter", "sed"},
      {"project X in=A fields=0 feilds=1", "union U in=X,B\nsink O in=U",
       "project", "feilds"},
      {"union X in=A,B ordered=1", "sink O in=X", "union", "ordered"},
      {"join X in=A,B windw=2s", "sink O in=X", "join", "windw"},
      {"mjoin X in=A,B window=1s keys=0", "sink O in=X", "mjoin", "keys"},
      {"aggregate X in=A fn=count window=1s slid=1s",
       "union U in=X,B\nsink O in=U", "aggregate", "slid"},
      {"gaggregate X in=A fn=count key=0 window=1s feld=0",
       "union U in=X,B\nsink O in=U", "gaggregate", "feld"},
      {"reorder X in=A slack=1s slak=2s", "union U in=X,B\nsink O in=U",
       "reorder", "slak"},
      {"copy X in=A fanout=2", "union U in=X,B\nsink O in=U", "copy",
       "fanout"},
      {"sink X in=A sort=1", "sink O in=B", "sink", "sort"},
  };
  for (const Case& c : kCases) {
    const std::string text = std::string("stream A\nstream B\n") +
                             c.statement + "\n" + c.rest + "\n";
    auto plan = ParsePlan(text);
    EXPECT_FALSE(plan.ok()) << c.statement;
    if (plan.ok()) continue;
    EXPECT_EQ(plan.status().message(),
              std::string("line 3: unknown ") + c.type + " key '" + c.key +
                  "'");
    // Without the misspelled key the plan parses.
    std::string fixed = c.statement;
    fixed = fixed.substr(0, fixed.rfind(' '));
    EXPECT_TRUE(ParsePlan(std::string("stream A\nstream B\n") + fixed +
                          "\n" + c.rest + "\n")
                    .ok())
        << fixed;
  }
}

TEST(PlanParserTest, ErrorEmptyPlan) {
  EXPECT_FALSE(ParsePlan("  \n# just a comment\n").ok());
}

TEST(PlanParserTest, ErrorValidationFailurePropagates) {
  // Parses fine but the graph is invalid: filter with no consumer.
  auto plan = ParsePlan("stream S\nfilter F in=S selectivity=0.5\n");
  EXPECT_FALSE(plan.ok());
}

TEST(PlanParserTest, CommentsAndBlankLinesIgnored) {
  auto plan = ParsePlan(R"(
# leading comment

stream S   # trailing comment
sink OUT in=S
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->graph->num_operators(), 2);
}

TEST(PlanParserTest, AggregateAfterLatentIsTimestamped) {
  // A latent stream through an aggregate becomes timestamped, so an ordered
  // union downstream is legal.
  auto plan = ParsePlan(R"(
stream A ts=latent
stream B ts=latent
aggregate AG1 in=A fn=count window=1s
aggregate AG2 in=B fn=count window=1s
union U in=AG1,AG2
sink O in=U
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto* u = dynamic_cast<Union*>(plan->Find("U"));
  ASSERT_NE(u, nullptr);
  EXPECT_TRUE(u->ordered());
}

}  // namespace
}  // namespace dsms

// The query grammar (service::parse_query, DESIGN.md §10): every verb
// parses to the same typed Query whatever the option order and spacing,
// every malformed text is a typed QueryError, and the live server answers
// a malformed query with that error instead of a best-effort table.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "hw/event.hpp"
#include "service/client.hpp"
#include "service/query.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"

namespace viprof::service {
namespace {

using Kind = QueryError::Kind;

Query parsed(const std::string& text) {
  const auto result = parse_query(text);
  const Query* q = std::get_if<Query>(&result);
  EXPECT_NE(q, nullptr) << "'" << text << "': " << std::get<QueryError>(result).message();
  return q != nullptr ? *q : Query{};
}

QueryError error_of(const std::string& text) {
  const auto result = parse_query(text);
  const QueryError* e = std::get_if<QueryError>(&result);
  EXPECT_NE(e, nullptr) << "'" << text << "' parsed";
  return e != nullptr ? *e : QueryError{};
}

/// `words` joined by `gap`, with `edge` before and after.
std::string spelled(const std::vector<std::string>& words, const std::string& gap,
                    const std::string& edge) {
  std::string out = edge;
  for (std::size_t i = 0; i < words.size(); ++i) out += (i ? gap : "") + words[i];
  return out + edge;
}

struct Case {
  std::vector<std::string> head;                  // verb and positionals
  std::vector<std::vector<std::string>> options;  // each option with its value
  Query want;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  Query q;
  q.verb = QueryVerb::kSessions;
  out.push_back({{"sessions"}, {}, q});

  q = Query{};
  q.verb = QueryVerb::kTop;
  q.top = 7;
  q.session = "s1";
  q.event = hw::EventKind::kBsqCacheReference;
  out.push_back({{"top", "7"}, {{"--session", "s1"}, {"--event", "dmiss"}}, q});

  q.top = 12;  // --top wins over N
  q.event = hw::EventKind::kInstrRetired;
  out.push_back(
      {{"top", "3"}, {{"--event", "INSTR_RETIRED"}, {"--top", "12"}, {"--session", "s1"}}, q});

  q = Query{};
  q.verb = QueryVerb::kSinceEpoch;
  q.n = 4;
  q.top = 9;
  q.session = "vm-a";
  out.push_back({{"since-epoch", "4"}, {{"--session", "vm-a"}, {"--top", "9"}}, q});

  q = Query{};
  q.verb = QueryVerb::kArcs;
  q.top = 20;
  q.session = "x";
  out.push_back({{"arcs", "20"}, {{"--session", "x"}}, q});

  q = Query{};
  q.verb = QueryVerb::kMemprof;
  q.top = 5;
  q.session = "m";
  out.push_back({{"memprof", "25"}, {{"--top", "5"}, {"--session", "m"}}, q});

  q = Query{};
  q.verb = QueryVerb::kDiff;
  q.before = "canary";
  q.after = "today";
  q.top = 6;
  q.event = hw::EventKind::kGlobalPowerEvents;
  out.push_back({{"diff", "canary", "today"}, {{"--event", "time"}, {"--top", "6"}}, q});

  q = Query{};
  q.verb = QueryVerb::kSnapshot;
  out.push_back({{"snapshot"}, {}, q});

  q = Query{};
  q.verb = QueryVerb::kStats;
  q.json = true;
  out.push_back({{"stats"}, {{"--json"}}, q});

  q = Query{};
  q.verb = QueryVerb::kTrace;
  out.push_back({{"trace"}, {}, q});

  q = Query{};
  q.verb = QueryVerb::kBatch;
  q.event = hw::EventKind::kObjDmiss;
  q.n = 256;
  out.push_back({{"batch", "DMISS_OBJ", "256"}, {}, q});
  return out;
}

TEST(QueryGrammar, EveryVerbOptionOrderAndSpacingParsesToTheSameQuery) {
  const std::vector<std::pair<std::string, std::string>> spacings = {
      {" ", ""}, {"   ", ""}, {"\t", " "}, {" \t ", "\n"}, {"\n", "  "}, {" \r ", "\t"}};
  for (const Case& c : cases()) {
    std::vector<std::size_t> order(c.options.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    do {
      std::vector<std::string> words = c.head;
      for (const std::size_t i : order)
        words.insert(words.end(), c.options[i].begin(), c.options[i].end());
      for (const auto& [gap, edge] : spacings) {
        const std::string text = spelled(words, gap, edge);
        EXPECT_EQ(parsed(text), c.want) << "'" << text << "'";
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(QueryGrammar, TopWithoutNIsAnErrorNotATableOverEverySession) {
  EXPECT_EQ(error_of("top --session s"), (QueryError{Kind::kMissingNumber, "top"}));
  EXPECT_EQ(error_of("top"), (QueryError{Kind::kMissingNumber, "top"}));

  // The server answers it with the error. (It used to read N as 0, skip the
  // options and answer a header-only table over all sessions.)
  ProfileServer server;
  {
    const auto scenario = record_scenario();
    auto conn = server.connect("s1");
    ReplayClient client(scenario->vfs(), "s1", *conn, ReplayOptions{256, nullptr, {}});
    ASSERT_TRUE(client.run());
  }
  server.drain();
  EXPECT_EQ(server.query("top --session s1 --event dmiss"), "error: top needs a number\n");
  EXPECT_EQ(server.query("since-epoch --session s1"),
            "error: since-epoch needs a number\n");
  EXPECT_EQ(server.query("top 5 --session s1 --event dmiss"),
            server.session("s1")->merged_profile().render(
                {hw::EventKind::kBsqCacheReference}, 5));
}

TEST(QueryGrammar, EveryMalformedTextIsATypedError) {
  const std::vector<std::pair<std::string, QueryError>> bad = {
      {"", {Kind::kUnknownVerb, ""}},
      {"   ", {Kind::kUnknownVerb, "   "}},
      {"tops 5", {Kind::kUnknownVerb, "tops 5"}},
      {"TOP 5", {Kind::kUnknownVerb, "TOP 5"}},
      {"arcs", {Kind::kMissingNumber, "arcs"}},
      {"memprof --top 3", {Kind::kMissingNumber, "memprof"}},
      {"top 5x", {Kind::kBadNumber, "5x"}},
      {"top -5", {Kind::kBadNumber, "-5"}},
      {"top 0x10", {Kind::kBadNumber, "0x10"}},
      {"top 99999999999999999999", {Kind::kBadNumber, "99999999999999999999"}},
      {"since-epoch 2 --top ten", {Kind::kBadNumber, "ten"}},
      {"diff", {Kind::kMissingOperand, "diff"}},
      {"diff a", {Kind::kMissingOperand, "diff"}},
      {"diff a --top 5", {Kind::kMissingOperand, "diff"}},
      {"top 5 extra", {Kind::kUnknownOption, "extra"}},
      {"top 5 --frob 1", {Kind::kUnknownOption, "--frob"}},
      {"top 5 --json", {Kind::kUnknownOption, "--json"}},
      {"since-epoch 2 --event time", {Kind::kUnknownOption, "--event"}},
      {"arcs 5 --event dmiss", {Kind::kUnknownOption, "--event"}},
      {"diff a b --session s", {Kind::kUnknownOption, "--session"}},
      {"diff a b c", {Kind::kUnknownOption, "c"}},
      {"sessions --json", {Kind::kUnknownOption, "--json"}},
      {"stats --top 3", {Kind::kUnknownOption, "--top"}},
      {"trace now", {Kind::kUnknownOption, "now"}},
      {"top 5 --session", {Kind::kMissingValue, "--session"}},
      {"top 5 --event", {Kind::kMissingValue, "--event"}},
      {"top 5 --top", {Kind::kMissingValue, "--top"}},
      {"top 5 --event cycles", {Kind::kUnknownEvent, "cycles"}},
      {"top 5 --event Time", {Kind::kUnknownEvent, "Time"}},
      {"diff a b --event nope", {Kind::kUnknownEvent, "nope"}},
      {"batch", {Kind::kMissingOperand, "batch"}},
      {"batch GLOBAL_POWER_EVENTS", {Kind::kMissingNumber, "batch"}},
      {"batch BOGUS", {Kind::kUnknownEvent, "BOGUS"}},
      {"batch BOGUS 3", {Kind::kUnknownEvent, "BOGUS"}},
      {"batch time 3 more", {Kind::kUnknownOption, "more"}},
  };
  for (const auto& [text, want] : bad) EXPECT_EQ(error_of(text), want) << "'" << text << "'";

  EXPECT_EQ(error_of("nonsense").message(), "error: unknown query: nonsense\n");
  EXPECT_EQ(error_of("top 5 --event cycles").message(), "error: unknown event: cycles\n");
  EXPECT_EQ(error_of("diff a").message(), "error: diff needs two session ids\n");
  EXPECT_EQ(unserved_query("diff a b"), "error: unknown query: diff a b\n");
}

TEST(QueryGrammar, EventNamesAreEveryFullNamePlusTimeAndDmiss) {
  for (const hw::EventKind kind : hw::kAllEventKinds) {
    EXPECT_EQ(hw::event_from_name(hw::to_string(kind)), kind);
    EXPECT_EQ(parsed(std::string("top 1 --event ") + hw::to_string(kind)).event, kind);
  }
  EXPECT_EQ(hw::event_from_name("time"), hw::EventKind::kGlobalPowerEvents);
  EXPECT_EQ(hw::event_from_name("dmiss"), hw::EventKind::kBsqCacheReference);
  EXPECT_FALSE(hw::event_from_name("").has_value());
  EXPECT_FALSE(hw::event_from_name("UNKNOWN_EVENT").has_value());
  EXPECT_FALSE(hw::event_from_name("global_power_events").has_value());

  // top renders the --event alone, else the report's two columns.
  EXPECT_EQ(parsed("top 3").events(), core::kReportEvents);
  EXPECT_EQ(parsed("top 3 --event dmiss").events(),
            std::vector<hw::EventKind>{hw::EventKind::kBsqCacheReference});
  EXPECT_EQ(parsed("diff a b").diff_event(), hw::EventKind::kGlobalPowerEvents);
  EXPECT_EQ(parsed("diff a b --event ITLB_MISS").diff_event(), hw::EventKind::kItlbMiss);
}

TEST(QueryGrammar, RepeatedOptionsKeepTheLastValue) {
  const Query q = parsed("top 5 --session a --event time --session b --event dmiss --top 2 --top 3");
  EXPECT_EQ(q.session, "b");
  EXPECT_EQ(q.event, hw::EventKind::kBsqCacheReference);
  EXPECT_EQ(q.top, 3u);
  EXPECT_EQ(parsed("top 18446744073709551615").top, ~std::uint64_t{0});
}

}  // namespace
}  // namespace viprof::service

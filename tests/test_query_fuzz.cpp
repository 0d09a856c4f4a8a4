// Seeded mutation suite for the query grammar (ctest -L fuzz). Well-formed
// queries over every verb are mutated word by word (dropped, duplicated,
// swapped, replaced from a vocabulary of verbs, options, events, numbers
// and junk) and byte by byte (flips, truncations, whitespace runs), then
// asked of every front end: the live server, the fleet federator and the
// offline fleet. None may crash (run it under VIPROF_SANITIZE=address),
// and each answer is one of three things:
//
//   * the text does not parse: the answer is its QueryError's message;
//   * it parses to a Query q whose verb the front end does not serve: the
//     answer is "error: unknown query: <text>", for every spelling of q;
//   * otherwise the answer is the one the front end gives for q spelled
//     canonically (so it depends on the parsed Query alone), and for a top
//     over one live session it is that session's profile rendered directly;
//     over the same sessions, server and federator answer top and memprof
//     alike, federator and offline fleet top and diff.
//
// stats and trace answer with live timings, so for them only the error
// rule is checked.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "service/client.hpp"
#include "service/query.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace viprof::service {
namespace {

constexpr std::uint64_t kSeeds = 40;
constexpr int kMutantsPerSeed = 50;

const char* const kCorpus[] = {
    "sessions",
    "top 20",
    "top 5 --session s0",
    "top 7 --event dmiss --session s1",
    "top 3 --event INSTR_RETIRED --top 4",
    "since-epoch 2 --session s0",
    "since-epoch 0 --top 6",
    "arcs 20 --session s1",
    "arcs 4",
    "memprof 20 --session s0",
    "memprof 6",
    "diff s0 s1",
    "diff s1 s0 --event dmiss --top 5",
    "snapshot",
    "stats --json",
    "trace",
    "batch GLOBAL_POWER_EVENTS 12",
};

const char* const kVocabulary[] = {
    "sessions", "top",   "since-epoch", "arcs",      "memprof", "diff",  "snapshot",
    "stats",    "trace", "batch",       "--session", "--event", "--top", "--json",
    "time",     "dmiss", "DMISS_OBJ",   "ITLB_MISS", "s0",      "s1",    "nope",
    "0",        "1",     "3",           "20",        "5x",      "-3",    "0x10",
    "18446744073709551616", "--",       "-",         "top5",    "\t",    "\n"};

std::vector<std::string> words_of(const std::string& text) {
  std::vector<std::string> out;
  std::string word;
  for (const char c : text + " ") {
    if (c == ' ') {
      if (!word.empty()) out.push_back(word);
      word.clear();
    } else {
      word += c;
    }
  }
  return out;
}

std::string mutate_once(const std::string& text, support::Xoshiro256& rng) {
  std::vector<std::string> words = words_of(text);
  std::string out = text;
  switch (rng.below(7)) {
    case 0:  // drop a word
      if (!words.empty()) words.erase(words.begin() + rng.below(words.size()));
      break;
    case 1:  // duplicate a word in place
      if (!words.empty()) {
        const std::size_t at = rng.below(words.size());
        words.insert(words.begin() + at, words[at]);
      }
      break;
    case 2:  // swap two neighbours
      if (words.size() >= 2) {
        const std::size_t at = rng.below(words.size() - 1);
        std::swap(words[at], words[at + 1]);
      }
      break;
    case 3:  // replace or insert a vocabulary word
      if (!words.empty() && rng.below(2) == 0)
        words[rng.below(words.size())] = kVocabulary[rng.below(std::size(kVocabulary))];
      else
        words.insert(words.begin() + rng.below(words.size() + 1),
                     kVocabulary[rng.below(std::size(kVocabulary))]);
      break;
    case 4:  // flip a byte
      if (!out.empty()) out[rng.below(out.size())] ^= static_cast<char>(1 + rng.below(127));
      return out;
    case 5:  // truncate
      return out.substr(0, rng.below(out.size() + 1));
    default: {  // a whitespace run somewhere
      static const char* const kRuns[] = {" ", "  ", "\t", "\n", " \r\n "};
      out.insert(rng.below(out.size() + 1), kRuns[rng.below(std::size(kRuns))]);
      return out;
    }
  }
  std::string joined;
  for (std::size_t i = 0; i < words.size(); ++i) joined += (i ? " " : "") + words[i];
  return joined;
}

/// `q` in the canonical spelling: positionals, then the options it holds.
std::string spelled(const Query& q) {
  const std::string top = std::to_string(q.top);
  std::string out;
  bool session = true, event = false;
  switch (q.verb) {
    case QueryVerb::kSessions: return "sessions";
    case QueryVerb::kSnapshot: return "snapshot";
    case QueryVerb::kTrace: return "trace";
    case QueryVerb::kStats: return q.json ? "stats --json" : "stats";
    case QueryVerb::kBatch:
      return std::string("batch ") + hw::to_string(*q.event) + " " + std::to_string(q.n);
    case QueryVerb::kTop:
      out = "top " + top;
      event = true;
      break;
    case QueryVerb::kSinceEpoch:
      out = "since-epoch " + std::to_string(q.n) + " --top " + top;
      break;
    case QueryVerb::kArcs:
      out = "arcs " + top;
      break;
    case QueryVerb::kMemprof:
      out = "memprof " + top;
      break;
    case QueryVerb::kDiff:
      out = "diff " + q.before + " " + q.after + " --top " + top;
      session = false;
      event = true;
      break;
  }
  if (session && !q.session.empty()) out += " --session " + q.session;
  if (event && q.event) out += std::string(" --event ") + hw::to_string(*q.event);
  return out;
}

std::unique_ptr<RecordedScenario> small(std::uint64_t seed) {
  ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 400;
  config.epochs = 6;
  config.methods = 32;
  config.seed = seed;
  return record_scenario(config);
}

TEST(QueryFuzz, EveryFrontEndAnswersTheParsedQueryOrItsError) {
  const auto s0 = small(0xf0), s1 = small(0xf1);
  ProfileServer server;
  for (const auto& [id, world] : {std::pair{"s0", s0.get()}, std::pair{"s1", s1.get()}}) {
    auto conn = server.connect(id);
    ReplayClient client(world->vfs(), id, *conn, ReplayOptions{128, nullptr, {}});
    ASSERT_TRUE(client.run());
  }
  server.drain();

  os::Vfs fleet_vfs;
  fleet::FleetConfig config;
  config.shards = 2;
  fleet::Router router(fleet_vfs, config);
  ASSERT_TRUE(router.ingest(s0->vfs(), "s0").completed);
  ASSERT_TRUE(router.ingest(s1->vfs(), "s1").completed);
  const fleet::Federator federator(router);
  os::Vfs exported = fleet_vfs;
  const auto offline = fleet::OfflineFleet::open(exported);
  ASSERT_TRUE(offline.has_value());

  struct FrontEnd {
    const char* name;
    std::function<std::string(const std::string&)> ask;
  };
  const std::vector<FrontEnd> front_ends = {
      {"server", [&server](const std::string& t) { return server.query(t); }},
      {"federator", [&federator](const std::string& t) { return federator.query(t); }},
      {"offline", [&offline](const std::string& t) { return offline->query(t); }},
  };

  std::size_t parsed = 0, refused = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 0x9e37 + 11);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string x = kCorpus[rng.below(std::size(kCorpus))];
      for (std::uint64_t n = rng.below(4); n > 0; --n) x = mutate_once(x, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " +
                                std::to_string(i) + " '" + x + "'";
      const auto result = parse_query(x);
      if (const auto* error = std::get_if<QueryError>(&result)) {
        ++refused;
        for (const FrontEnd& f : front_ends)
          ASSERT_EQ(f.ask(x), error->message()) << f.name << " " << where;
        continue;
      }
      ++parsed;
      const Query& q = std::get<Query>(result);
      const std::string canonical = spelled(q);
      ASSERT_EQ(parse_query(canonical), result) << where << " -> " << canonical;
      for (const FrontEnd& f : front_ends) {
        const std::string answer = f.ask(x);
        // A verb the front end does not serve echoes the text as written.
        if (answer == unserved_query(x)) {
          ASSERT_EQ(f.ask(canonical), unserved_query(canonical)) << f.name << " " << where;
          continue;
        }
        if (q.verb == QueryVerb::kStats || q.verb == QueryVerb::kTrace) continue;
        ASSERT_EQ(answer, f.ask(canonical)) << f.name << " " << where;
      }
      if (q.verb == QueryVerb::kTop && server.session(q.session) != nullptr) {
        EXPECT_EQ(server.query(x),
                  server.session(q.session)->merged_profile().render(q.events(), q.top))
            << where;
      }
      // The front ends hold the same two sessions, so where two serve a
      // verb they answer alike, byte for byte — an unknown session too.
      if (q.verb == QueryVerb::kTop || q.verb == QueryVerb::kMemprof) {
        EXPECT_EQ(federator.query(x), server.query(x)) << where;
      }
      if (q.verb == QueryVerb::kTop || q.verb == QueryVerb::kDiff) {
        EXPECT_EQ(offline->query(x), federator.query(x)) << where;
      }
    }
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(parsed, kSeeds * kMutantsPerSeed / 5);
  EXPECT_GT(refused, kSeeds * kMutantsPerSeed / 5);
}

}  // namespace
}  // namespace viprof::service

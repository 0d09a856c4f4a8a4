// The process-wide name interner (support/interner.hpp, DESIGN.md §9):
// one id per distinct text, text order for Name, lookups that never
// insert, and the thread-safety contract — concurrent interning of
// overlapping name sets agrees on every id and every string_view handed
// out stays valid. Part of the `resolve` label, so the sanitizer stage of
// scripts/ci.sh runs it under TSan.
#include "support/interner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/server.hpp"
#include "support/telemetry.hpp"

namespace viprof::support {
namespace {

TEST(NameInterner, OneIdPerTextAndTheEmptyNameIsIdZero) {
  NameInterner& names = NameInterner::global();
  EXPECT_EQ(names.intern(""), 0u);
  EXPECT_TRUE(Name().empty());
  EXPECT_EQ(Name(""), Name());

  const std::string text = "interner.test.OneIdPerText.method(I)V";
  const std::uint32_t id = names.intern(text);
  EXPECT_EQ(names.intern(std::string(text)), id);
  EXPECT_EQ(names.lookup(text), id);
  EXPECT_EQ(names.view(id), text);
  EXPECT_NE(names.view(id).data(), text.data());  // the table owns a copy

  const Name name(text);
  EXPECT_EQ(name.id(), id);
  EXPECT_EQ(name, text);
  EXPECT_EQ(name.str(), text);
  EXPECT_EQ(std::string_view(name), text);
}

TEST(NameInterner, LookupNeverInserts) {
  NameInterner& names = NameInterner::global();
  const std::size_t size = names.size();
  const std::size_t bytes = names.bytes();
  EXPECT_EQ(names.lookup("interner.test.LookupNeverInserts.absent"),
            NameInterner::kNone);
  EXPECT_FALSE(Name::lookup("interner.test.LookupNeverInserts.absent").has_value());
  EXPECT_EQ(names.size(), size);
  EXPECT_EQ(names.bytes(), bytes);

  const Name added("interner.test.LookupNeverInserts.present");
  EXPECT_EQ(names.size(), size + 1);
  EXPECT_EQ(names.bytes(), bytes + added.size());
  ASSERT_TRUE(Name::lookup("interner.test.LookupNeverInserts.present").has_value());
  EXPECT_EQ(*Name::lookup("interner.test.LookupNeverInserts.present"), added);
}

TEST(NameInterner, NamesOrderByTextWhateverTheirIds) {
  // Interned in reverse text order, so ids run against the text order.
  const Name c("interner.test.order.c");
  const Name b("interner.test.order.b");
  const Name a("interner.test.order.a");
  ASSERT_GT(a.id(), c.id());
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_FALSE(c < a);
  EXPECT_EQ(a <=> Name("interner.test.order.a"), std::strong_ordering::equal);
  std::vector<Name> sorted = {c, a, b};
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Name>{a, b, c}));
  // A prefix sorts first, as std::string would sort it.
  EXPECT_LT(Name("interner.test.order"), a);
}

TEST(NameInterner, LongNamesAndManyNamesKeepTheirText) {
  // Past one text block and past the first id chunk.
  const std::string long_name(5000, 'x');
  const Name big(long_name);
  std::vector<std::pair<Name, std::string>> many;
  for (int i = 0; i < 5000; ++i) {
    std::string text = "interner.test.many." + std::to_string(i);
    many.emplace_back(Name(text), std::move(text));
  }
  EXPECT_EQ(big.view(), long_name);
  for (const auto& [name, text] : many) {
    EXPECT_EQ(name.view(), text);
    EXPECT_EQ(Name(text), name);
  }
}

TEST(NameInterner, GaugesShowHowFarTheTableHasGrown) {
  const Name grown("interner.test.GaugesShowHowFarTheTableHasGrown");
  Telemetry telemetry;
  publish_process_gauges(telemetry);
  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.gauge("support.interner.names"),
            static_cast<double>(NameInterner::global().size()));
  EXPECT_EQ(snap.gauge("support.interner.bytes"),
            static_cast<double>(NameInterner::global().bytes()));
  EXPECT_GE(snap.gauge("support.interner.bytes"), static_cast<double>(grown.size()));

  // The service's `stats` verb publishes them before it snapshots.
  service::ProfileServer server;
  const std::string stats = server.query("stats");
  EXPECT_NE(stats.find("support.interner.names"), std::string::npos) << stats;
  EXPECT_NE(stats.find("support.interner.bytes"), std::string::npos) << stats;
}

TEST(NameInternerConcurrency, OverlappingSetsGetOneIdEachAndViewsStayValid) {
  constexpr int kThreads = 8;
  constexpr int kNames = 4000;
  // Thread t interns names [t * kNames / 2, t * kNames / 2 + kNames): each
  // name is shared with a neighbour, and every thread starts at a
  // different point so insertions of the same name race.
  const auto text_of = [](int n) {
    return "interner.test.concurrent.Klass" + std::to_string(n % 97) + ".m" +
           std::to_string(n);
  };
  struct Seen {
    int n;
    std::uint32_t id;
    std::string_view view;
  };
  std::vector<std::vector<Seen>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int first = t * kNames / 2;
      for (int k = 0; k < kNames; ++k) {
        const int n = first + (k * 7919 + t * 31) % kNames;
        const std::string text = text_of(n);
        const Name name(text);
        seen[t].push_back({n, name.id(), name.view()});
        // Lookups race with other threads' inserts into the same shards.
        EXPECT_EQ(NameInterner::global().lookup(text), name.id());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const int total = (kThreads + 1) * kNames / 2;
  std::vector<std::uint32_t> id_of(static_cast<std::size_t>(total), NameInterner::kNone);
  for (const std::vector<Seen>& per_thread : seen) {
    for (const Seen& s : per_thread) {
      std::uint32_t& id = id_of[static_cast<std::size_t>(s.n)];
      if (id == NameInterner::kNone) id = s.id;
      EXPECT_EQ(s.id, id) << "two ids for " << text_of(s.n);
      EXPECT_EQ(s.view, text_of(s.n)) << "a view changed after interning";
    }
  }
  std::vector<std::uint32_t> ids = id_of;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "two names share an id";
  EXPECT_EQ(ids.back() == NameInterner::kNone, false) << "a name was never interned";
}

}  // namespace
}  // namespace viprof::support

// Scaling-path correctness for the striped ingest pipeline (DESIGN.md §14).
//
// Two families:
//  - Thread sweep: the online-vs-offline byte-identity anchor must hold at
//    every ingest thread count, and so at every stripe count the server
//    gives a session (one per ingest thread) — never an observable.
//  - Concurrency stress: ingest, online queries, store flushes and RCU
//    snapshot installs in the shared code-map cache all race on purpose.
//    These tests exist to run under TSan in the sanitizer CI stage (ctest
//    -L service): the lock-free read path and the striped apply path must
//    be exactly as data-race-free as the single-mutex design they replaced.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/code_map.hpp"
#include "service/client.hpp"
#include "service/code_map_cache.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"

namespace viprof::service {
namespace {

const std::vector<hw::EventKind> kEvents = {hw::EventKind::kGlobalPowerEvents,
                                            hw::EventKind::kBsqCacheReference};

ScenarioConfig small_scenario() {
  ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 3'000;
  config.epochs = 8;
  config.methods = 64;
  return config;
}

bool replay(ProfileServer& server, const RecordedScenario& scenario,
            const std::string& id) {
  auto conn = server.connect(id);
  ReplayClient client(scenario.vfs(), id, *conn, ReplayOptions{128, nullptr, {}});
  return client.run();
}

TEST(ServiceScaling, ByteIdentityAtEveryThreadAndStripeCount) {
  const auto scenario = record_scenario(small_scenario());
  const std::string offline = offline_render(scenario->vfs(), kEvents, 30);

  // A session has one stripe per ingest thread; stripe counts apart from
  // the thread count are swept where ServerSession is built directly
  // (test_order_independence.cpp).
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ServerConfig config;
    config.ingest_threads = threads;
    ProfileServer server(config);
    ASSERT_TRUE(replay(server, *scenario, "sweep"));
    server.drain();
    ASSERT_EQ(server.session("sweep")->stripe_count(), threads);
    EXPECT_EQ(server.session_report("sweep", 30, kEvents), offline)
        << "threads=" << threads;
  }
}

TEST(ServiceScaling, DefaultStripeCountFollowsPool) {
  ServerConfig config;
  config.ingest_threads = 3;
  ProfileServer server(config);
  auto conn = server.connect("c");
  // Frame-level open so a session exists without a full replay.
  conn->send(encode_frame(FrameType::kOpenSession, "auto"));
  ASSERT_NE(server.session("auto"), nullptr);
  EXPECT_EQ(server.session("auto")->stripe_count(), 3u);
}

TEST(ServiceScalingStress, ConcurrentIngestQueriesAndFlushes) {
  // Queries race the striped apply path mid-stream. Mid-stream answers are
  // subset-consistent (some batches not yet applied), but must never crash,
  // deadlock or tear; the post-drain answer must be the full serial one.
  const auto scenario = record_scenario(small_scenario());
  const std::string offline = offline_render(scenario->vfs(), kEvents, 30);

  ServerConfig config;
  config.ingest_threads = 4;
  ProfileServer server(config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&server, &done, &queries, t] {
      while (!done.load(std::memory_order_acquire)) {
        switch ((queries.fetch_add(1, std::memory_order_relaxed) + t) % 4) {
          case 0: server.query("top 10 --session stress"); break;
          case 1: server.query("sessions"); break;
          case 2: server.query("arcs 10 --session stress"); break;
          default: server.query("since-epoch 2 --session stress"); break;
        }
      }
    });
  }

  ASSERT_TRUE(replay(server, *scenario, "stress"));
  server.drain();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(server.session_report("stress", 30, kEvents), offline);
}

TEST(ServiceScalingStress, CodeMapCacheSnapshotInstallUnderReaders) {
  // Hammer the RCU read path while writers install new snapshot
  // generations and evict over capacity: pins handed out must stay valid,
  // concurrent misses on one key must build once, and (under TSan) the
  // lock-free hit path must stay race-free against the copy-on-write swap.
  CodeMapCache cache(4);  // small: every installer round forces evictions

  auto build = [](std::uint64_t epoch) {
    return [epoch]() {
      core::CodeMapFile file;
      file.epoch = epoch;
      core::CodeMapEntry entry;
      entry.address = 0x1000 * (epoch + 1);
      entry.size = 0x800;
      entry.symbol = "m" + std::to_string(epoch);
      file.entries.push_back(std::move(entry));
      core::CodeMapIndex index;
      index.add(std::move(file));
      return index;
    };
  };
  std::atomic<std::uint64_t> builds{0};
  auto counted_build = [&builds, &build](std::uint64_t epoch) {
    return [&builds, fn = build(epoch)]() {
      builds.fetch_add(1, std::memory_order_relaxed);
      return fn();
    };
  };

  constexpr int kReaders = 4;
  constexpr int kRounds = 300;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  // Readers: loop over a hot working set of 2 keys (stays resident).
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t ceiling = static_cast<std::uint64_t>(t % 2);
        const CodeMapCache::IndexPtr pin =
            cache.get("s", 7, ceiling, counted_build(ceiling));
        ASSERT_NE(pin, nullptr);
        // The pin is usable even if the entry is evicted right now.
        pin->resolve(0x1000 * (ceiling + 1) + 4, ceiling);
      }
    });
  }
  // Installer: streams new generations through, forcing snapshot swaps
  // and LRU eviction churn against the readers.
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t ceiling = 100 + static_cast<std::uint64_t>(i);
      cache.get("s", 9, ceiling, counted_build(ceiling));
    }
  });
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // The 2 hot keys may be rebuilt if the installer churn evicts them, but
  // concurrent misses coalesce: far fewer builds than reader calls.
  EXPECT_GE(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), builds.load());
  EXPECT_LT(builds.load(),
            static_cast<std::uint64_t>(kReaders * kRounds + kRounds));
  EXPECT_GT(cache.evictions(), 0u);
}

}  // namespace
}  // namespace viprof::service

// Property test for the session's map shelves (DESIGN.md §14): whatever
// order one session's code and object maps arrive in — out-of-order and
// missing epochs, torn and wrongly keyed copies, a second spelling of an
// epoch, a re-streamed path, strays under a non-canonical pid — after every
// stored file the index ServerSession::map_index flattens from a shelf
// answers every lookup as lookup_walkback does over a fresh reload
// (CodeMapIndex::load, core::load_object_index) of ServerSession::world(),
// at every epoch up to the pid's published ceiling. The ceiling is the
// highest file-name epoch of either kind stored for the pid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/code_map.hpp"
#include "core/object_map.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"

namespace viprof::service {
namespace {

constexpr hw::Pid kPids[] = {7, 12};
constexpr std::uint64_t kEpochs = 9;
constexpr hw::Address kBase = 0x7000'0000;
constexpr std::uint64_t kSlots = 48;  // entry starts: kBase + slot * 0x100

struct Arrival {
  std::string path;
  std::string bytes;
  std::optional<hw::Pid> owner;  // the pid whose reload lists the path
  std::uint64_t epoch = 0;       // the file-name epoch
  bool code = true;
};

std::string code_map_bytes(support::Xoshiro256& rng, hw::Pid pid, std::uint64_t epoch) {
  core::CodeMapFile file;
  file.epoch = epoch;
  const std::uint64_t entries = 1 + rng.below(12);
  for (std::uint64_t i = 0; i < entries; ++i)
    file.entries.push_back({kBase + rng.below(kSlots) * 0x100, 0x40 + rng.below(0x180),
                            support::Name("m" + std::to_string(pid) + "_" +
                                          std::to_string(epoch) + "_" + std::to_string(i))});
  return file.serialize(pid);
}

std::string object_map_bytes(support::Xoshiro256& rng, hw::Pid pid, std::uint64_t epoch) {
  core::ObjectMapFile file;
  file.epoch = epoch;
  const std::uint64_t objects = 1 + rng.below(12);
  for (std::uint64_t i = 0; i < objects; ++i)
    file.objects.push_back({kBase + rng.below(kSlots) * 0x100, 0x20 + rng.below(0x200),
                            epoch * 100 + i, static_cast<std::uint32_t>(rng.below(8))});
  return file.serialize(pid);
}

/// A map's bytes as they may arrive: intact, torn, or keyed as another
/// pid's (a copy a reload refuses).
std::string damaged(support::Xoshiro256& rng, std::string bytes, std::string other_pid_copy) {
  const std::uint64_t roll = rng.below(100);
  if (roll < 15) return bytes.substr(0, rng.below(bytes.size()));
  if (roll < 20) return other_pid_copy;
  return bytes;
}

Arrival random_arrival(support::Xoshiro256& rng, MapKind kind, const std::string& dir,
                       hw::Pid pid, std::uint64_t epoch) {
  const bool code = kind == MapKind::kCode;
  std::string bytes =
      code ? code_map_bytes(rng, pid, epoch) : object_map_bytes(rng, pid, epoch);
  std::string copy =
      code ? code_map_bytes(rng, pid + 1, epoch) : object_map_bytes(rng, pid + 1, epoch);
  return {code ? core::CodeMapFile::path_for(dir, pid, epoch)
               : core::ObjectMapFile::path_for(dir, pid, epoch),
          damaged(rng, std::move(bytes), std::move(copy)), pid, epoch, code};
}

/// One session's map stream in a random arrival order.
std::vector<Arrival> random_stream(support::Xoshiro256& rng) {
  std::vector<Arrival> stream;
  for (const hw::Pid pid : kPids) {
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      if (rng.below(100) < 85)
        stream.push_back(random_arrival(rng, MapKind::kCode, "jit_maps", pid, e));
      if (rng.below(100) < 85)
        stream.push_back(random_arrival(rng, MapKind::kObject, "obj_maps", pid, e));
    }
  }
  for (std::size_t i = stream.size(); i > 1; --i)
    std::swap(stream[i - 1], stream[rng.below(i)]);

  const auto insert_after = [&](std::size_t at, Arrival arrival) {
    const std::size_t pos = at + 1 + rng.below(stream.size() - at);
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(pos), std::move(arrival));
  };
  // Re-streamed paths: new bytes for a path already sent, some time later.
  for (int i = 0; i < 3 && !stream.empty(); ++i) {
    const std::size_t at = rng.below(stream.size());
    const Arrival& first = stream[at];
    Arrival again = random_arrival(rng, first.code ? MapKind::kCode : MapKind::kObject,
                                   first.code ? "jit_maps" : "obj_maps", *first.owner,
                                   first.epoch);
    insert_after(at, std::move(again));
  }
  // A second spelling of an epoch (both are listed, and merge), and strays
  // no reload of a pid lists.
  const std::uint64_t alias = rng.below(kEpochs);
  insert_after(0, {"jit_maps/7/map." + std::to_string(alias), code_map_bytes(rng, 7, alias),
                   7, alias, true});
  insert_after(0, {"jit_maps/012/map.00000003", code_map_bytes(rng, 12, 3)});
  insert_after(0, {"obj_maps/07/omap.00000004", object_map_bytes(rng, 7, 4)});
  insert_after(0, {"jit_maps/4294967308/map.00000005", code_map_bytes(rng, 12, 5)});
  return stream;
}

bool same_lookup(const core::CodeMapIndex::Lookup& a, const core::CodeMapIndex::Lookup& b) {
  if (a.miss != b.miss || a.hit.has_value() != b.hit.has_value()) return false;
  if (!a.hit) return true;
  return a.hit->symbol == b.hit->symbol && a.hit->found_in_epoch == b.hit->found_in_epoch &&
         a.hit->maps_searched == b.hit->maps_searched && a.hit->address == b.hit->address &&
         a.hit->size == b.hit->size;
}

/// The shelf's index against a fresh reload of the world, at every epoch up
/// to one past `ceiling`, over the whole address window.
void expect_shelf_matches_reload(const ServerSession& session, const os::Vfs& world,
                                 MapKind kind, hw::Pid pid, std::uint64_t ceiling,
                                 std::size_t step) {
  const bool code = kind == MapKind::kCode;
  const std::string dir = code ? "jit_maps" : "obj_maps";
  const core::CodeMapIndex shelf = session.map_index(kind, dir, pid);
  core::CodeMapIndex fresh;
  if (code) fresh.load(world, dir, pid);
  else fresh = core::load_object_index(world, dir, pid).index;
  ASSERT_EQ(shelf.map_count(), fresh.map_count()) << dir << " pid " << pid << " step " << step;
  ASSERT_EQ(shelf.truncated_count(), fresh.truncated_count());
  for (std::uint64_t epoch = 0; epoch <= ceiling + 1; ++epoch) {
    for (hw::Address pc = kBase - 0x40; pc < kBase + (kSlots + 2) * 0x100; pc += 0x40) {
      ASSERT_TRUE(same_lookup(shelf.lookup(pc, epoch), fresh.lookup_walkback(pc, epoch)))
          << dir << " pid " << pid << " pc 0x" << std::hex << pc << std::dec << " epoch "
          << epoch << " after arrival " << step;
    }
  }
}

/// The ceiling the arrivals so far publish for `pid`: the highest
/// file-name epoch of a code or object map the pid's reload lists.
std::optional<std::uint64_t> expected_ceiling(const std::vector<Arrival>& stream,
                                              std::size_t upto, hw::Pid pid) {
  std::optional<std::uint64_t> ceiling;
  for (std::size_t i = 0; i <= upto; ++i)
    if (stream[i].owner == pid && (!ceiling || stream[i].epoch > *ceiling))
      ceiling = stream[i].epoch;
  return ceiling;
}

TEST(MapShelfProperty, AnyArrivalOrderMatchesAFreshReloadAtEveryCeiling) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::Xoshiro256 rng(0x5e1f + seed * 7919);
    const std::vector<Arrival> stream = random_stream(rng);
    ServerSession session("shelf", 4);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      session.store_file(stream[i].path, stream[i].bytes);
      const std::shared_ptr<const CeilingMap> ceilings = session.ceilings();
      const os::Vfs world = session.world();
      for (const hw::Pid pid : kPids) {
        const auto want = expected_ceiling(stream, i, pid);
        const auto it = ceilings->find(pid);
        ASSERT_EQ(it != ceilings->end(), want.has_value()) << "pid " << pid << " step " << i;
        if (!want) continue;
        ASSERT_EQ(it->second, *want) << "pid " << pid << " step " << i;
        expect_shelf_matches_reload(session, world, MapKind::kCode, pid, *want, i);
        expect_shelf_matches_reload(session, world, MapKind::kObject, pid, *want, i);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// A ceiling is published only after its map is shelved: an index built
// after reading a ceiling holds a map of that epoch, whichever kind moved
// it, while another thread keeps storing (TSan checks the shelf lock).
TEST(MapShelfProperty, ShelvedBeforeTheCeilingMovesUnderConcurrentBuilds) {
  support::Xoshiro256 rng(0xc0ffee);
  const std::vector<Arrival> stream = random_stream(rng);
  ServerSession session("shelf", 2);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> checks{0};
  std::vector<std::thread> builders;
  for (int t = 0; t < 2; ++t) {
    builders.emplace_back([&] {
      started.fetch_add(1);
      bool last = false;
      do {
        last = done.load(std::memory_order_acquire);
        const std::shared_ptr<const CeilingMap> ceilings = session.ceilings();
        for (const auto& [pid, ceiling] : *ceilings) {
          const std::uint64_t seen =
              std::max(session.map_index(MapKind::kCode, "jit_maps", pid).max_epoch(),
                       session.map_index(MapKind::kObject, "obj_maps", pid).max_epoch());
          EXPECT_GE(seen, ceiling) << "pid " << pid;
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!last);
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  for (int round = 0; round < 3; ++round)  // later rounds re-stream every path
    for (const Arrival& arrival : stream) session.store_file(arrival.path, arrival.bytes);
  done.store(true, std::memory_order_release);
  for (std::thread& t : builders) t.join();
  EXPECT_GT(checks.load(), 0u);
}

}  // namespace
}  // namespace viprof::service

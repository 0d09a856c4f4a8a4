#include "support/interner.hpp"

#include <cstring>
#include <ostream>

#include <malloc.h>

#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/telemetry.hpp"

namespace viprof::support {

namespace {

constexpr std::size_t kTextBlock = 32 * 1024;  // names share blocks this big
constexpr std::size_t kOwnBlock = 2 * 1024;    // a longer name gets its own

std::uint64_t name_hash(std::string_view s) {
  return fmix64(std::hash<std::string_view>{}(s));
}

}  // namespace

NameInterner::NameInterner() {
  const std::uint32_t empty = intern("");
  VIPROF_CHECK(empty == 0);
}

std::uint32_t NameInterner::probe(const Table* table, std::uint64_t h,
                                  std::string_view s, std::size_t& pos) const {
  if (table == nullptr) return kNone;
  const std::uint64_t tag = h >> 32;
  for (pos = h & table->mask;; pos = (pos + 1) & table->mask) {
    // Acquire pairs with the release that filled the slot, which comes
    // after the id's entry was written: a found id has readable text.
    const std::uint64_t slot = table->slots[pos].load(std::memory_order_acquire);
    if (slot == kEmptySlot) return kNone;
    const auto id = static_cast<std::uint32_t>(slot);
    if ((slot >> 32) == tag && view(id) == s) return id;
  }
}

std::uint32_t NameInterner::lookup(std::string_view s) const {
  const std::uint64_t h = name_hash(s);
  const Shard& shard = shards_[h >> (64 - kShardBits)];
  std::size_t pos = 0;
  return probe(shard.table.load(std::memory_order_acquire), h, s, pos);
}

std::uint32_t NameInterner::intern(std::string_view s) {
  if (const std::uint32_t id = lookup(s); id != kNone) return id;
  const std::uint64_t h = name_hash(s);
  Shard& shard = shards_[h >> (64 - kShardBits)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const Table* table = shard.table.load(std::memory_order_relaxed);
  std::size_t pos = 0;
  // Another thread may have inserted it since the lock-free probe.
  if (const std::uint32_t id = probe(table, h, s, pos); id != kNone) return id;
  if (table == nullptr || (shard.used + 1) * 4 > (table->mask + 1) * 3) {
    grow(shard);
    table = shard.table.load(std::memory_order_relaxed);
    probe(table, h, s, pos);
  }
  VIPROF_CHECK(s.size() <= 0xffffffffu);
  const std::uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  VIPROF_CHECK(id < kNone);
  publish(id, store_text(shard, s), s.size());
  table->slots[pos].store((h >> 32) << 32 | id, std::memory_order_release);
  ++shard.used;
  names_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(s.size(), std::memory_order_relaxed);
  return id;
}

void NameInterner::grow(Shard& shard) {
  const Table* old = shard.table.load(std::memory_order_relaxed);
  const std::size_t capacity = old == nullptr ? 64 : (old->mask + 1) * 2;
  auto* table = new Table{capacity - 1, new std::atomic<std::uint64_t>[capacity]};
  for (std::size_t i = 0; i < capacity; ++i)
    table->slots[i].store(kEmptySlot, std::memory_order_relaxed);
  if (old != nullptr) {
    for (std::size_t i = 0; i <= old->mask; ++i) {
      const std::uint64_t slot = old->slots[i].load(std::memory_order_relaxed);
      if (slot == kEmptySlot) continue;
      std::size_t pos = name_hash(view(static_cast<std::uint32_t>(slot))) & table->mask;
      while (table->slots[pos].load(std::memory_order_relaxed) != kEmptySlot)
        pos = (pos + 1) & table->mask;
      table->slots[pos].store(slot, std::memory_order_relaxed);
    }
    // Lock-free readers may still be probing the old table; it stays.
    shard.retired.push_back(old);
  }
  shard.table.store(table, std::memory_order_release);
}

const char* NameInterner::store_text(Shard& shard, std::string_view s) {
  if (s.empty()) return "";
  if (s.size() > kOwnBlock) {
    char* own = new char[s.size()];
    std::memcpy(own, s.data(), s.size());
    return own;
  }
  if (shard.text_left < s.size()) {
    shard.text = new char[kTextBlock];
    shard.text_left = kTextBlock;
  }
  char* out = shard.text;
  std::memcpy(out, s.data(), s.size());
  shard.text += s.size();
  shard.text_left -= s.size();
  return out;
}

void NameInterner::publish(std::uint32_t id, const char* data, std::size_t size) {
  const std::uint64_t k = std::uint64_t{id} + (std::uint64_t{1} << kChunkBits);
  const unsigned chunk = static_cast<unsigned>(std::bit_width(k)) - 1 - kChunkBits;
  Entry* entries = chunks_[chunk].load(std::memory_order_acquire);
  if (entries == nullptr) {
    // Two shards may reach a new chunk at once; one allocation wins.
    Entry* fresh = new Entry[std::size_t{1} << (chunk + kChunkBits)];
    if (chunks_[chunk].compare_exchange_strong(entries, fresh, std::memory_order_acq_rel))
      entries = fresh;
    else
      delete[] fresh;
  }
  entries[k - (std::uint64_t{1} << (chunk + kChunkBits))] =
      Entry{data, static_cast<std::uint32_t>(size)};
}

std::ostream& operator<<(std::ostream& os, Name name) { return os << name.view(); }

void publish_process_gauges(Telemetry& telemetry) {
  const NameInterner& names = NameInterner::global();
  telemetry.gauge("support.interner.names").set(static_cast<double>(names.size()));
  telemetry.gauge("support.interner.bytes").set(static_cast<double>(names.bytes()));
  const struct mallinfo2 heap = mallinfo2();
  telemetry.gauge("process.heap_in_use_bytes")
      .set(static_cast<double>(heap.uordblks + heap.hblkhd));
}

}  // namespace viprof::support

// One process-wide, append-only name interner (DESIGN.md §9, §14).
//
// Profiles fold (image, symbol) rows, and the names are long: JIT method
// signatures rarely fit a std::string's small buffer. The interner stores
// every distinct name once, for the life of the process, and hands out a
// 4-byte id for it. Symbol tables, code maps, object maps and archives
// intern their names when they load; from there on resolutions, profile
// rows and call arcs carry ids, so resolving a sample, finding its row,
// merging profiles and copying them touch no string. Text comes back out
// only where it leaves the process: renders, store segments, the service
// snapshot, the wire.
//
// Thread-safety contract:
//   * intern() and lookup() may be called from any number of threads. The
//     string -> id table is split into shards. Probes take no lock: a
//     shard's slot array is published through an atomic pointer and its
//     slots are atomics, and a grown array replaces the old one without
//     freeing it. Only the insertion of a new name takes the shard's mutex.
//   * view() takes no lock: an id indexes a chunked array whose chunks are
//     published once and never move, and a name's bytes never move either.
//     Every string_view view() returns stays valid until the process exits.
//   * A thread may view() any id it received from intern()/lookup(), or
//     through any synchronisation with a thread that did.
//
// Ids are dense and stable, but their values depend on the order names
// were first interned. No output may depend on them: everything that
// orders or prints names compares or copies their text (Name's ordering
// below is by text).
#pragma once

#include <atomic>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace viprof::support {

class NameInterner {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// The process-wide table. Id 0 is the empty name.
  static NameInterner& global() {
    static NameInterner* const table = new NameInterner();  // never destroyed
    return *table;
  }

  /// The id of `s`, adding it on first sight.
  std::uint32_t intern(std::string_view s);

  /// The id of `s`, or kNone if it was never interned. Never inserts and
  /// never allocates.
  std::uint32_t lookup(std::string_view s) const;

  /// The text of `id`: a lock-free read of two array slots.
  std::string_view view(std::uint32_t id) const {
    const std::uint64_t k = std::uint64_t{id} + (std::uint64_t{1} << kChunkBits);
    const unsigned chunk = static_cast<unsigned>(std::bit_width(k)) - 1 - kChunkBits;
    const Entry& e = chunks_[chunk].load(std::memory_order_acquire)
                         [k - (std::uint64_t{1} << (chunk + kChunkBits))];
    return {e.data, e.size};
  }

  /// Distinct names held, and the bytes of their text.
  std::size_t size() const { return names_.load(std::memory_order_relaxed); }
  std::size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  NameInterner(const NameInterner&) = delete;
  NameInterner& operator=(const NameInterner&) = delete;

 private:
  NameInterner();

  struct Entry {
    const char* data = nullptr;
    std::uint32_t size = 0;
  };
  // Chunk c holds 2^(c + kChunkBits) ids, so kChunks chunks cover every
  // uint32 id below kNone.
  static constexpr unsigned kChunkBits = 10;
  static constexpr unsigned kChunks = 22;
  static constexpr unsigned kShardBits = 4;

  /// Open addressing: each slot is (hash tag << 32 | id), or kEmptySlot.
  struct Table {
    std::size_t mask = 0;  // capacity - 1, a power of two minus one
    std::atomic<std::uint64_t>* slots = nullptr;
  };
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

  struct Shard {
    std::atomic<const Table*> table{nullptr};
    std::mutex mu;  // held to insert and to grow
    std::size_t used = 0;
    std::vector<const Table*> retired;  // replaced tables, still readable
    char* text = nullptr;               // free space in the current text block
    std::size_t text_left = 0;
  };

  /// The id of the name hashing to `h` with text `s` in `table`, or kNone;
  /// `pos` is left at the slot where it was found or would go.
  std::uint32_t probe(const Table* table, std::uint64_t h, std::string_view s,
                      std::size_t& pos) const;
  void grow(Shard& shard);
  const char* store_text(Shard& shard, std::string_view s);
  void publish(std::uint32_t id, const char* data, std::size_t size);

  std::atomic<Entry*> chunks_[kChunks] = {};
  Shard shards_[std::size_t{1} << kShardBits];
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::size_t> names_{0};
  std::atomic<std::size_t> bytes_{0};
};

/// An interned name: a 4-byte id that reads as a std::string_view.
///
/// Equality compares ids, which is exact because each text has one id.
/// Ordering compares text, never ids, so sorted output does not depend on
/// which name happened to be interned first.
class Name {
 public:
  /// The empty name.
  Name() = default;
  explicit Name(std::string_view s) : id_(NameInterner::global().intern(s)) {}

  Name& operator=(std::string_view s) {
    id_ = NameInterner::global().intern(s);
    return *this;
  }

  /// The name with text `s` if it was ever interned; never inserts.
  static std::optional<Name> lookup(std::string_view s) {
    const std::uint32_t id = NameInterner::global().lookup(s);
    if (id == NameInterner::kNone) return std::nullopt;
    Name n;
    n.id_ = id;
    return n;
  }

  std::uint32_t id() const { return id_; }
  std::string_view view() const { return NameInterner::global().view(id_); }
  operator std::string_view() const { return view(); }
  std::string str() const { return std::string(view()); }
  bool empty() const { return id_ == 0; }
  std::size_t size() const { return view().size(); }

  friend bool operator==(Name a, Name b) { return a.id_ == b.id_; }
  friend bool operator==(Name a, std::string_view b) { return a.view() == b; }
  /// Text order; equal ids short-circuit, and distinct ids have distinct text.
  friend std::strong_ordering operator<=>(Name a, Name b) {
    if (a.id_ == b.id_) return std::strong_ordering::equal;
    return a.view().compare(b.view()) < 0 ? std::strong_ordering::less
                                          : std::strong_ordering::greater;
  }

 private:
  std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, Name name);

class Telemetry;

/// Sets the process-wide memory gauges of `telemetry`:
/// `support.interner.names` and `support.interner.bytes`, how far the
/// append-only table has grown, and `process.heap_in_use_bytes`, the bytes
/// malloc has handed out and not taken back (mallinfo2: arena chunks in use
/// plus mmapped blocks).
void publish_process_gauges(Telemetry& telemetry);

}  // namespace viprof::support

template <>
struct std::hash<viprof::support::Name> {
  std::size_t operator()(viprof::support::Name n) const noexcept { return n.id(); }
};

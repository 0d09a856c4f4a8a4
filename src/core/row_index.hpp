// One string-free row index for every profile fold (DESIGN.md §9).
//
// Profile and CallGraph keep their rows in a vector; RowIndex maps a row's
// interned name ids to its position in that vector. It is an
// open-addressing table of uint32 row ids plus one cached 64-bit hash per
// row. Equality is decided by the owning container — the caller passes a
// predicate that compares its own row `id` against the probe's name ids —
// so a lookup hashes and compares integers only and a hit allocates
// nothing, and a fold of one container into another reuses the source
// row's cached hash.
//
// rank_top() is the one ranking helper every top-N table goes through. Its
// order depends on the rows' counts and name *text* only, never on where a
// row sits in the vector or on id values, so folds may run in any order
// and names may be interned in any order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/hash.hpp"
#include "support/interner.hpp"

namespace viprof::core {

/// Hash of a profile row's identity, (image, symbol). It hashes ids, so it
/// places rows in the table only; nothing ordered or printed depends on it.
inline std::uint64_t row_hash(support::Name image, support::Name symbol) {
  return support::fmix64(std::uint64_t{image.id()} << 32 | symbol.id());
}

/// Hash of a call arc's identity, its caller and callee rows (ordered).
inline std::uint64_t arc_hash(support::Name caller_image, support::Name caller_symbol,
                              support::Name callee_image, support::Name callee_symbol) {
  return support::fmix64(row_hash(caller_image, caller_symbol) * 0xc2b2ae3d27d4eb4full ^
                         row_hash(callee_image, callee_symbol));
}

class RowIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::size_t size() const { return hashes_.size(); }

  /// The cached hash of row `id`.
  std::uint64_t hash(std::uint32_t id) const { return hashes_[id]; }

  /// The row with hash `h` that `same(id)` accepts, or kNone.
  template <typename Same>
  std::uint32_t find(std::uint64_t h, Same&& same) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = slots_[i];
      if (id == kNone) return kNone;
      if (hashes_[id] == h && same(id)) return id;
    }
  }

  /// The row with hash `h` that `same(id)` accepts, paired with false; or,
  /// when there is none, the fresh id size() registered under `h`, paired
  /// with true — the caller then appends that row to its own vector. Only
  /// an insertion can allocate.
  template <typename Same>
  std::pair<std::uint32_t, bool> intern(std::uint64_t h, Same&& same) {
    if (const std::uint32_t id = find(h, same); id != kNone) return {id, false};
    if ((hashes_.size() + 1) * 4 > slots_.size() * 3) grow();
    const auto id = static_cast<std::uint32_t>(hashes_.size());
    hashes_.push_back(h);
    place(id);
    return {id, true};
  }

 private:
  void place(std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hashes_[id] & mask;
    while (slots_[i] != kNone) i = (i + 1) & mask;
    slots_[i] = id;
  }

  void grow() {
    slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, kNone);
    for (std::uint32_t id = 0; id < hashes_.size(); ++id) place(id);
  }

  std::vector<std::uint32_t> slots_;  // power-of-two capacity, ≤ 3/4 full
  std::vector<std::uint64_t> hashes_;  // by row id
};

/// Positions in [0, n) of the first min(top_n, n) rows ranked by `key(i)`
/// descending, ties by `tie_less(i, j)` — the prefix a full sort of all n
/// rows in that order would produce, at the cost of a partial sort. The
/// callers pass a tie rule on the rows' names, which makes the order total.
template <typename Key, typename TieLess>
std::vector<std::uint32_t> rank_top(std::size_t n, std::size_t top_n, Key&& key,
                                    TieLess&& tie_less) {
  struct Entry {
    std::uint64_t key;
    std::uint32_t pos;
  };
  std::vector<Entry> entries(n);
  for (std::size_t i = 0; i < n; ++i)
    entries[i] = {static_cast<std::uint64_t>(key(i)), static_cast<std::uint32_t>(i)};
  const auto before = [&](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key > b.key : tie_less(a.pos, b.pos);
  };
  const std::size_t k = std::min(top_n, n);
  if (k == n) std::sort(entries.begin(), entries.end(), before);
  else std::partial_sort(entries.begin(), entries.begin() + k, entries.end(), before);
  std::vector<std::uint32_t> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = entries[i].pos;
  return out;
}

}  // namespace viprof::core

// A set of 64-bit keys in one flat table (DESIGN.md §15).
//
// Open addressing with linear probing over a power-of-two array of keys:
// an insert is a multiply, a shift and a short scan of adjacent slots, and
// no key ever gets a heap node of its own. The memprof site table dedups
// every obj_id of every object map through these sets; node-based
// std::unordered_set seen-sets cost one allocation per object and, freed
// and rebuilt every report, fragmented the heap behind offline_report's
// peak RSS.
//
// Every 64-bit value is a valid key. Slot value 0 marks an empty slot, so
// key 0 itself is held by a flag beside the table. The table grows (to
// twice its size) only as keys are inserted or reserved for, never from a
// caller's guess at a file's contents, and is at most 3/4 full.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace viprof::support {

class U64Set {
 public:
  /// Adds `key`; false when it was present already.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      return true;
    }
    if (slots_.empty()) grow(kMinSlots);
    // At most 3/4 full before the insert, so a probe always ends.
    if (!place(key)) return false;
    if (used_ * 4 > slots_.size() * 3) grow(slots_.size() * 2);
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    return !slots_.empty() && slots_[slot_of(key)] == key;
  }

  /// Makes room for `n` keys in all, so inserting up to that many rehashes
  /// nothing. Never shrinks.
  void reserve(std::size_t n) {
    if (n * 4 <= slots_.size() * 3) return;
    std::size_t slots = slots_.empty() ? kMinSlots : slots_.size();
    while (n * 4 > slots * 3) slots *= 2;
    grow(slots);
  }

  /// Removes every key; the table keeps its size.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    used_ = 0;
    has_empty_key_ = false;
  }

  std::size_t size() const { return used_ + (has_empty_key_ ? 1 : 0); }

  /// Heap bytes the table holds.
  std::size_t bytes() const { return slots_.capacity() * sizeof(std::uint64_t); }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kMinSlots = 16;

  /// Fibonacci hashing: the top bits of key * 2^64/phi, so runs of
  /// consecutive obj_ids spread over the whole table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t slot_of(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i] != key && slots_[i] != kEmpty) i = (i + 1) & mask;
    return i;
  }

  bool place(std::uint64_t key) {
    std::uint64_t& slot = slots_[slot_of(key)];
    if (slot == key) return false;
    slot = key;
    ++used_;
    return true;
  }

  void grow(std::size_t slots) {
    std::vector<std::uint64_t> old(slots, kEmpty);
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    used_ = 0;
    for (const std::uint64_t key : old)
      if (key != kEmpty) place(key);
  }

  std::vector<std::uint64_t> slots_;  // kEmpty or a key; size 0 or a power of two
  std::size_t used_ = 0;              // keys in slots_
  unsigned shift_ = 64;               // 64 - log2(slots_.size())
  bool has_empty_key_ = false;        // key 0, which slots_ cannot hold
};

}  // namespace viprof::support

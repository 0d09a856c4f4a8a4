// Symbol tables for binary images: name + offset + size, offset-ordered,
// binary-search lookup (the core of OProfile's PC → method attribution).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "support/interner.hpp"

namespace viprof::os {

struct Symbol {
  support::Name name;  // interned once, when the table is built
  std::uint64_t offset = 0;  // from image base
  std::uint64_t size = 0;
};

/// Thread-safety: find()/ordered() may be called concurrently from any
/// number of threads (the parallel resolution pipeline does); the lazy
/// sort happens once under a lock. add() and moves are exclusive.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(SymbolTable&& other) noexcept { *this = std::move(other); }
  SymbolTable& operator=(SymbolTable&& other) noexcept;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// An independent table with the same symbols (the table owns a mutex,
  /// so copies are explicit).
  SymbolTable copy() const;

  /// Adds a symbol; offsets may arrive unordered, the table sorts lazily.
  void add(std::string_view name, std::uint64_t offset, std::uint64_t size);

  /// Symbol covering `offset`, if any. Symbols must not overlap (checked
  /// at first lookup after mutation).
  std::optional<Symbol> find(std::uint64_t offset) const;

  std::size_t size() const { return symbols_.size(); }
  bool empty() const { return symbols_.empty(); }

  /// Offset-ordered view (forces the sort).
  const std::vector<Symbol>& ordered() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<Symbol> symbols_;
  mutable std::atomic<bool> sorted_{true};
  mutable std::mutex sort_mu_;
};

}  // namespace viprof::os

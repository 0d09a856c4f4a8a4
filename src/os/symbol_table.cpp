#include "os/symbol_table.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace viprof::os {

SymbolTable& SymbolTable::operator=(SymbolTable&& other) noexcept {
  if (this != &other) {
    // Moves require exclusive access to both sides, like add(); the mutex
    // itself is not transferred.
    symbols_ = std::move(other.symbols_);
    sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    other.sorted_.store(true, std::memory_order_relaxed);
  }
  return *this;
}

SymbolTable SymbolTable::copy() const {
  SymbolTable out;
  out.symbols_ = ordered();  // sorted, as a fresh table's flag says
  return out;
}

void SymbolTable::add(std::string_view name, std::uint64_t offset, std::uint64_t size) {
  symbols_.push_back(Symbol{support::Name(name), offset, size});
  sorted_.store(false, std::memory_order_release);
}

void SymbolTable::ensure_sorted() const {
  // Double-checked: concurrent readers race here only until the first
  // lookup after a mutation completes the sort.
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(sort_mu_);
  if (sorted_.load(std::memory_order_relaxed)) return;
  std::sort(symbols_.begin(), symbols_.end(),
            [](const Symbol& a, const Symbol& b) { return a.offset < b.offset; });
  for (std::size_t i = 1; i < symbols_.size(); ++i) {
    VIPROF_CHECK(symbols_[i - 1].offset + symbols_[i - 1].size <= symbols_[i].offset);
  }
  sorted_.store(true, std::memory_order_release);
}

std::optional<Symbol> SymbolTable::find(std::uint64_t offset) const {
  ensure_sorted();
  auto it = std::upper_bound(
      symbols_.begin(), symbols_.end(), offset,
      [](std::uint64_t off, const Symbol& s) { return off < s.offset; });
  if (it == symbols_.begin()) return std::nullopt;
  --it;
  if (offset < it->offset + it->size) return *it;
  return std::nullopt;
}

const std::vector<Symbol>& SymbolTable::ordered() const {
  ensure_sorted();
  return symbols_;
}

}  // namespace viprof::os

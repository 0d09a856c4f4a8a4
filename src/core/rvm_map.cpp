#include "core/rvm_map.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "support/str_scan.hpp"

namespace viprof::core {

os::SymbolTable build_symbol_table(std::vector<SymbolLine>& lines, std::size_t* dropped) {
  // A symbol table must not overlap (os::SymbolTable checks it at the
  // first lookup, in an order that does not fix equal offsets), so a
  // damaged map degrades instead.
  std::sort(lines.begin(), lines.end(), [](const SymbolLine& a, const SymbolLine& b) {
    if (a.offset != b.offset) return a.offset < b.offset;
    return a.size != b.size ? a.size > b.size : a.order < b.order;
  });
  os::SymbolTable table;
  const SymbolLine* kept = nullptr;
  for (const SymbolLine& l : lines) {
    if ((kept != nullptr &&
         (l.offset == kept->offset || l.offset < kept->offset + kept->size)) ||
        l.size > ~std::uint64_t{0} - l.offset) {
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    table.add(l.name, l.offset, l.size);
    kept = &l;
  }
  return table;
}

os::SymbolTable parse_rvm_map(const std::string& contents) {
  std::vector<SymbolLine> lines;
  const auto handle = [&lines](std::string_view line) {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::string_view name;
    // Three whitespace-separated fields; "12 5x name" is junk, not a
    // five-byte symbol "x".
    if (!support::scan_hex64(line, offset) || !support::scan_u64(line, size) ||
        line.empty() || !support::is_space(line.front()) ||
        !support::scan_token(line, name)) {
      return;  // not a map line; skipped, like every other malformed line
    }
    // The on-disk symbol field is capped at 511 chars; longer names are
    // truncated, not rejected — a boot map is trusted input, unlike the
    // checksummed epoch maps.
    if (name.size() > 511) name = name.substr(0, 511);
    lines.push_back({offset, size, name, lines.size()});
  };
  support::LineCursor cursor(contents);
  std::string_view line;
  while (cursor.next(line)) handle(line);
  // The boot map has no framing to verify, so a final line without a
  // newline is still a line.
  if (!cursor.tail().empty()) handle(cursor.tail());

  return build_symbol_table(lines);
}

}  // namespace viprof::core

#include "core/rvm_map.hpp"

#include <string_view>

#include "support/str_scan.hpp"

namespace viprof::core {

os::SymbolTable parse_rvm_map(const std::string& contents) {
  os::SymbolTable table;
  const auto handle = [&table](std::string_view line) {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::string_view name;
    if (!support::scan_hex64(line, offset) || !support::scan_u64(line, size) ||
        !support::scan_token(line, name)) {
      return;  // not a map line; skipped, like every other malformed line
    }
    // The on-disk symbol field is capped at 511 chars; longer names are
    // truncated, not rejected — a boot map is trusted input, unlike the
    // checksummed epoch maps.
    if (name.size() > 511) name = name.substr(0, 511);
    table.add(name, offset, size);
  };
  support::LineCursor cursor(contents);
  std::string_view line;
  while (cursor.next(line)) handle(line);
  // The boot map has no framing to verify, so a final line without a
  // newline is still a line.
  if (!cursor.tail().empty()) handle(cursor.tail());
  return table;
}

}  // namespace viprof::core

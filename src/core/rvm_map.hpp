// Jikes-style boot-image method map ("RVM.map") parsing, for the
// attribution tree's shared map-loading step (core/archive.hpp).
//
// Each line is "offset-hex size-dec symbol" (whitespace-separated; more
// fields after the symbol are ignored); anything else (comments, blank
// lines, junk) is skipped, matching the tolerance of the real tool, which
// must digest maps produced by several RVM builds. A symbol that would
// share its offset with, or start inside, one kept before it is dropped,
// so a damaged map degrades the attribution instead of failing the
// symbol table's no-overlap check. The file is scanned in a
// single pass (support/str_scan.hpp) — this parse is on the post-processing
// startup path and is measured by micro_resolve's BM_RvmMapParse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "os/symbol_table.hpp"

namespace viprof::core {

os::SymbolTable parse_rvm_map(const std::string& contents);

/// A symbol line of RVM.map or an archive manifest; `order` is its
/// position in the file.
struct SymbolLine {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::string_view name;
  std::size_t order = 0;
};

/// The table of `lines` under the no-overlap rule above (largest first at
/// an offset, file order among equals; a symbol ending past 2^64 drops
/// too). Sorts `lines`; adds the number dropped to *dropped.
os::SymbolTable build_symbol_table(std::vector<SymbolLine>& lines,
                                   std::size_t* dropped = nullptr);

}  // namespace viprof::core

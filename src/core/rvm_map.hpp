// Jikes-style boot-image method map ("RVM.map") parsing, shared by the
// live Resolver and the offline ArchiveResolver.
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

#include <string>

#include "os/symbol_table.hpp"

namespace viprof::core {

os::SymbolTable parse_rvm_map(const std::string& contents);

}  // namespace viprof::core

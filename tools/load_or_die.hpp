// Loading shared by the query tools (viprof_query, viprof_store,
// viprof_fleet). Each helper prints "<tool>: <what failed>" to stderr and
// exits 2 (a load error) or 3 (usage), the tools' common exit codes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "os/vfs.hpp"
#include "service/query.hpp"
#include "store/profile_store.hpp"
#include "support/arg_scan.hpp"

namespace viprof::tool {

/// A viprof-snapshot v2 file, or DIR/service.snap; exits 2 when it is
/// missing or fails its checksum.
inline service::ServiceSnapshot load_snapshot_or_die(const char* tool,
                                                     const std::string& arg) {
  std::string path = arg;
  if (std::filesystem::is_directory(path)) path += "/service.snap";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", tool, path.c_str());
    std::exit(2);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  auto snap = service::ServiceSnapshot::parse(contents.str());
  if (!snap) {
    std::fprintf(stderr, "%s: %s is not a valid service snapshot\n", tool, path.c_str());
    std::exit(2);
  }
  return *std::move(snap);
}

/// Imports host directory `dir` into `vfs`; exits `status` unless it is a
/// directory holding files: 2, a load error, by default. An fsck passes
/// core::kFsckExitUsage, since 2 is one of its verdicts.
inline void import_or_die(const char* tool, os::Vfs& vfs, const std::string& dir,
                          int status = 2) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "%s: %s is not a directory\n", tool, dir.c_str());
    std::exit(status);
  }
  vfs.import_from_directory(dir);
  if (vfs.file_count() == 0) {
    std::fprintf(stderr, "%s: nothing under %s\n", tool, dir.c_str());
    std::exit(status);
  }
}

/// The store rooted at `vfs`'s root (a host directory), open()ed; exits 2
/// on an unrecoverable layout. Recovery repairs stay in `vfs` until a tool
/// syncs it back.
inline std::unique_ptr<store::ProfileStore> open_store_or_die(const char* tool, os::Vfs& vfs) {
  store::StoreConfig config;
  config.root = "";
  auto st = std::make_unique<store::ProfileStore>(vfs, config);
  const store::StoreRecovery rec = st->open();
  if (rec.verdict == core::FsckVerdict::kUnrecoverable) {
    std::fprintf(stderr, "%s: %s\n", tool, rec.summary.c_str());
    std::exit(2);
  }
  return st;
}

/// store::parse_window of `spec` over `session`; exits 3 with `usage` when
/// the spec is malformed.
inline store::WindowSpec window_or_die(const char* tool, const std::string& spec,
                                       const std::string& session, const char* usage) {
  auto w = store::parse_window(spec, session);
  if (!w) {
    std::fprintf(stderr, "%s: bad window %s\n%s", tool, spec.c_str(), usage);
    std::exit(support::kExitUsage);
  }
  return *std::move(w);
}

}  // namespace viprof::tool

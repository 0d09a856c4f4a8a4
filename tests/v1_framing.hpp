// Test-only: framed-text v1, the format an older build wrote.
//
// Every writer in src/ emits v2 (XXH32 under a per-file key). v1 is the
// same bytes with unkeyed FNV-1a in every crc field and "v1" in the header
// lines that name a version (store segments, the store and fleet
// manifests). to_v1() rewrites a tree of v2 files into exactly that, so
// the v1 readers and the v1 -> v2 differential can be tested without a
// fixture from an older build: a line or file that does not verify under
// its v2 key is damage, and stays as it is.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "core/code_map.hpp"
#include "core/object_map.hpp"
#include "core/sample_log.hpp"
#include "hw/event.hpp"
#include "os/vfs.hpp"
#include "store/segment.hpp"
#include "support/framed_text.hpp"

namespace viprof::v1 {

/// Rewrites one header line (or line body) from its v2 form.
using Edit = std::function<std::string(std::string_view)>;

inline std::string unchanged(std::string_view text) { return std::string(text); }

/// `text` with `from` replaced by `to` where it occurs first.
inline Edit replace(std::string from, std::string to) {
  return [from = std::move(from), to = std::move(to)](std::string_view text) {
    std::string out(text);
    const std::size_t at = out.find(from);
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
}

/// Every line that verifies under `hash`, its body rewritten by `edit` and
/// re-framed under v1; any other line, and an unterminated tail, as is.
inline std::string lines_to_v1(std::string_view text, support::FrameHash hash,
                               const Edit& edit = unchanged) {
  std::string out;
  support::LineCursor cursor(text);
  std::string_view line, body;
  while (cursor.next(line)) {
    if (support::unframe_line(line, hash, body)) {
      support::append_framed_line(out, edit(body), support::FrameHash::v1());
    } else {
      out.append(line).push_back('\n');
    }
  }
  out += cursor.tail();
  return out;
}

/// A file whose trailer verifies under `hash`, its first line rewritten by
/// `edit` and its trailer re-computed under v1; any other file as is.
inline std::string trailer_to_v1(std::string_view text, support::FrameHash hash,
                                 const Edit& edit = unchanged) {
  const auto body = support::strip_crc_trailer(text, hash);
  if (!body) return std::string(text);
  const std::size_t nl = body->find('\n');
  std::string out = edit(body->substr(0, nl));
  out += body->substr(nl);
  support::append_crc_trailer(out, support::FrameHash::v1());
  return out;
}

/// The one file at `path` in v1, told apart by its path as the readers tell
/// it: <EVENT>.samples, <dir>/<pid>/map.<E>, <dir>/<pid>/omap.<E>,
/// segments/seg-<id>.vseg and MANIFEST (store or fleet, by its header).
/// Anything else (the service snapshot has no v1 reader) is kept as is.
inline std::string file_to_v1(const std::string& path, const std::string& text) {
  const std::string_view name = std::string_view(path).substr(path.rfind('/') + 1);
  if (name.ends_with(".samples")) {
    const auto event = hw::event_from_name(name.substr(0, name.size() - 8));
    return event ? lines_to_v1(text, core::sample_line_hash(*event)) : text;
  }
  const hw::Pid pid = core::pid_from_map_path(path).value_or(0);
  const auto code_epoch = core::CodeMapFile::epoch_from_path(path);
  if (code_epoch && name.starts_with("map."))
    return trailer_to_v1(text, core::CodeMapFile::frame_hash(pid, *code_epoch));
  const auto object_epoch = core::ObjectMapFile::epoch_from_path(path);
  if (object_epoch && name.starts_with("omap."))
    return trailer_to_v1(text, core::ObjectMapFile::frame_hash(pid, *object_epoch));
  if (const auto id = support::scan_name_number(path, "segments/seg-", ".vseg"))
    return lines_to_v1(text, store::segment_frame_hash(*id),
                       replace(" H viprof-segment v2 ", " H viprof-segment v1 "));
  if (name == "MANIFEST") {
    for (const auto& [kind, header] :
         {std::pair{support::FrameKind::kStoreManifest, std::string("viprof-store-manifest")},
          std::pair{support::FrameKind::kFleetManifest, std::string("viprof-fleet-manifest")}})
      if (text.starts_with(header + " v2\n"))
        return trailer_to_v1(text, support::FrameHash::v2(support::frame_key(kind)),
                             replace(header + " v2", header + " v1"));
  }
  return text;
}

/// Every file of `tree` in v1.
inline os::Vfs to_v1(const os::Vfs& tree) {
  os::Vfs out;
  for (const std::string& path : tree.list(""))
    out.write(path, file_to_v1(path, *tree.read(path)));
  return out;
}

}  // namespace viprof::v1

#include "core/object_map.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "support/check.hpp"
#include "support/format.hpp"

namespace viprof::core {

namespace {

// "<hex-addr> <size> <obj_id> <site>" with nothing after.
bool parse_object_line(std::string_view line, ObjectMapEntry& entry) {
  std::uint64_t addr = 0, size = 0, obj_id = 0, site = 0;
  if (!support::scan_hex64(line, addr) || !support::scan_u64(line, size) ||
      !support::scan_u64(line, obj_id) || !support::scan_u64(line, site) ||
      site > 0xffffffffull || !support::at_end(line)) {
    return false;
  }
  entry.address = addr;
  entry.size = size;
  entry.obj_id = obj_id;
  entry.site = static_cast<std::uint32_t>(site);
  return true;
}

// "dead <obj_id> <size> <site>" with nothing after.
bool parse_dead_line(std::string_view line, ObjectDeath& death) {
  std::uint64_t obj_id = 0, size = 0, site = 0;
  if (!support::scan_lit(line, "dead") || !support::scan_u64(line, obj_id) ||
      !support::scan_u64(line, size) || !support::scan_u64(line, site) ||
      site > 0xffffffffull || !support::at_end(line)) {
    return false;
  }
  death.obj_id = obj_id;
  death.size = size;
  death.site = static_cast<std::uint32_t>(site);
  return true;
}

// "site <idx> <name>" — the name is a single token (site names carry no
// spaces), capped at the same on-disk limit as code-map symbols.
bool parse_site_line(std::string_view line, SiteName& site) {
  std::uint64_t idx = 0;
  std::string_view name;
  if (!support::scan_lit(line, "site") || !support::scan_u64(line, idx) ||
      idx > 0xffffffffull || !support::scan_token(line, name) ||
      name.size() > 511 || !support::at_end(line)) {
    return false;
  }
  site.site = static_cast<std::uint32_t>(idx);
  site.name = name;
  return true;
}

std::string header_line(std::uint64_t epoch, std::uint64_t objects, std::uint64_t dead) {
  return "omap " + std::to_string(epoch) + " objects " + std::to_string(objects) +
         " dead " + std::to_string(dead);
}

// "omap <epoch> objects <N> dead <D>" with nothing after D.
bool parse_header_line(std::string_view line, std::uint64_t& epoch,
                       std::uint64_t& objects, std::uint64_t& dead) {
  if (!support::scan_lit(line, "omap") || !support::scan_u64(line, epoch)) {
    return false;
  }
  support::skip_ws(line);
  if (!support::scan_lit(line, "objects") || !support::scan_u64(line, objects)) {
    return false;
  }
  support::skip_ws(line);
  return support::scan_lit(line, "dead") && support::scan_u64(line, dead) &&
         support::at_end(line);
}

}  // namespace

std::string site_symbol(std::uint32_t site) {
  return "site#" + std::to_string(site);
}

std::optional<std::uint32_t> site_from_symbol(std::string_view symbol) {
  if (!symbol.starts_with("site#") || symbol.size() == 5) return std::nullopt;
  std::uint64_t idx = 0;
  for (std::size_t i = 5; i < symbol.size(); ++i) {
    if (symbol[i] < '0' || symbol[i] > '9') return std::nullopt;
    idx = idx * 10 + static_cast<std::uint64_t>(symbol[i] - '0');
    if (idx > 0xffffffffull) return std::nullopt;
  }
  return static_cast<std::uint32_t>(idx);
}

support::FrameHash ObjectMapFile::frame_hash(hw::Pid pid, std::uint64_t epoch) {
  return support::FrameHash::v2(
      support::frame_key(support::FrameKind::kObjectMap, pid, epoch));
}

std::string ObjectMapFile::serialize(hw::Pid pid) const {
  std::string out = header_line(epoch, objects.size(), dead.size()) + "\n";
  if (truncated) out += "truncated\n";
  for (const SiteName& s : sites) {
    out += "site " + std::to_string(s.site) + " ";
    out += s.name.view();
    out += '\n';
  }
  for (const ObjectMapEntry& e : objects) {
    out += support::hex(e.address);
    out += ' ';
    out += std::to_string(e.size);
    out += ' ';
    out += std::to_string(e.obj_id);
    out += ' ';
    out += std::to_string(e.site);
    out += '\n';
  }
  for (const ObjectDeath& d : dead) {
    out += "dead " + std::to_string(d.obj_id) + " " + std::to_string(d.size) +
           " " + std::to_string(d.site) + "\n";
  }
  support::append_crc_trailer(out, frame_hash(pid, epoch));
  return out;
}

std::optional<ObjectMapFile> ObjectMapFile::parse(const std::string& contents,
                                                  support::FrameHash hash) {
  // Strict parse accepts only fully verified files. A `truncated` marker
  // written by fsck is fine: the rewritten file carries its own header
  // counts and crc, so it verifies as intact while keeping the flag.
  const Recovery r = salvage(contents, hash, 0);
  if (!r.intact) return std::nullopt;
  return r.file;
}

ObjectMapFile::Recovery ObjectMapFile::salvage(const std::string& contents,
                                               support::FrameHash hash,
                                               std::uint64_t epoch_hint) {
  Recovery r;
  r.file.epoch = epoch_hint;
  // An unreadable header leaves epoch_hint standing and nothing salvageable.
  const support::FramedWalk w = support::walk_framed_file(
      contents, hash,
      [&r, &contents](std::string_view line) {
        std::uint64_t epoch = 0, objects = 0, dead = 0;
        if (!parse_header_line(line, epoch, objects, dead)) return false;
        r.file.epoch = epoch;
        r.objects_expected = objects;
        r.dead_expected = dead;
        // Sized from the header, but never past what the file could hold:
        // "0 0 0 0\n" is the shortest entry line, so a corrupt count cannot
        // force a large allocation.
        const std::uint64_t room = contents.size() / 8;
        r.file.objects.reserve(static_cast<std::size_t>(std::min(objects, room)));
        r.file.dead.reserve(static_cast<std::size_t>(std::min(dead, room)));
        return true;
      },
      [&r](std::string_view line) {
        SiteName site;
        ObjectDeath death;
        ObjectMapEntry e;
        // A line past its declared count is damage too: the header is what
        // loss is counted against.
        if (parse_site_line(line, site)) {
          r.file.sites.push_back(std::move(site));
        } else if (parse_dead_line(line, death)) {
          if (r.file.dead.size() == r.dead_expected) return false;
          r.file.dead.push_back(death);
        } else if (parse_object_line(line, e)) {
          if (r.file.objects.size() == r.objects_expected) return false;
          r.file.objects.push_back(e);
        } else {
          return false;
        }
        return true;
      });
  r.header_ok = w.header_ok;
  r.intact = w.intact && r.file.objects.size() == r.objects_expected &&
             r.file.dead.size() == r.dead_expected;
  r.file.truncated = w.truncated || !r.intact;
  r.refused = !support::walked_items_usable(
      contents, w, hash, header_line(epoch_hint, r.objects_expected, r.dead_expected));
  return r;
}

ObjectMapFile::Recovery ObjectMapFile::salvage_file(const std::string& path,
                                                    const std::string& contents) {
  const auto name_epoch = epoch_from_path(path);
  const std::uint64_t epoch = name_epoch.value_or(0);
  Recovery r = salvage(contents, frame_hash(pid_from_map_path(path).value_or(0), epoch), epoch);
  if (!r.intact && name_epoch) r.file.epoch = *name_epoch;
  if (r.refused) {
    r.file.sites.clear();
    r.file.objects.clear();
    r.file.dead.clear();
  }
  return r;
}

std::string ObjectMapFile::path_for(const std::string& dir, hw::Pid pid,
                                    std::uint64_t epoch) {
  char buf[64];
  // Zero-padded epoch keeps VFS listing in epoch order.
  std::snprintf(buf, sizeof buf, "/%u/omap.%08llu", pid,
                static_cast<unsigned long long>(epoch));
  return dir + buf;
}

std::optional<std::uint64_t> ObjectMapFile::epoch_from_path(const std::string& path) {
  return support::scan_basename_number(path, "omap.");
}

CodeMapFile ObjectMapFile::to_code_map() const {
  CodeMapFile out;
  out.epoch = epoch;
  out.truncated = truncated;
  out.entries.reserve(objects.size());
  // One interned "site#<idx>" per distinct site, not one per object.
  std::unordered_map<std::uint32_t, support::Name> symbols;
  for (const ObjectMapEntry& e : objects) {
    const auto [it, fresh] = symbols.try_emplace(e.site);
    if (fresh) it->second = site_symbol(e.site);
    out.entries.push_back(CodeMapEntry{e.address, e.size, it->second});
  }
  return out;
}

ObjectIndexLoad load_object_index(const os::Vfs& vfs, const std::string& dir,
                                  hw::Pid pid) {
  ObjectIndexLoad out;
  const std::string prefix = dir + "/" + std::to_string(pid) + "/omap.";
  for (const std::string& path : vfs.list(prefix)) {
    const auto contents = vfs.read(path);
    VIPROF_CHECK(contents.has_value());
    // The file name carries the epoch, so even a fully corrupt file still
    // registers its epoch as truncated — resolution must know the epoch
    // existed and is unaccounted for.
    ObjectMapFile::Recovery r = ObjectMapFile::salvage_file(path, *contents);
    ++out.maps_loaded;
    if (r.file.truncated) ++out.maps_truncated;
    out.objects_loaded += r.file.objects.size();
    out.index.add(r.file.to_code_map());
    out.files.push_back(std::move(r.file));
  }
  out.index.prepare();
  return out;
}

}  // namespace viprof::core

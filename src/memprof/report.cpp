#include "memprof/report.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <utility>

#include "core/sample_log.hpp"
#include "support/format.hpp"

namespace viprof::memprof {

ObjectReport build_object_report(const os::Vfs& vfs, const std::string& sample_dir,
                                 const std::vector<core::VmRegistration>& regs) {
  ObjectReport out;
  std::map<hw::Pid, core::CodeMapIndex> indexes;
  for (const core::VmRegistration& reg : regs) {
    if (reg.obj_map_dir.empty()) continue;
    core::ObjectIndexLoad load = core::load_object_index(vfs, reg.obj_map_dir, reg.pid);
    for (core::ObjectMapFile& file : load.files)
      out.sites.ingest("", reg.pid,
                       std::make_shared<const core::ObjectMapFile>(std::move(file)));
    indexes.emplace(reg.pid, std::move(load.index));
  }

  const std::vector<core::LoggedSample> samples =
      core::SampleLogReader::read(vfs, sample_dir, hw::EventKind::kObjDmiss);
  out.samples = samples.size();
  for (const core::LoggedSample& s : samples) {
    const auto it = indexes.find(s.pid);
    const core::CodeMapIndex* index = it == indexes.end() ? nullptr : &it->second;
    out.profile.add(hw::EventKind::kObjDmiss,
                    resolve_object(index, s.pc, s.epoch, &out.stats));
  }
  return out;
}

std::string render_memprof(const SiteTable& sites, const core::Profile& profile,
                           std::size_t top_n) {
  // Collapse (pid, site) onto the site index — object rows in the profile
  // are keyed by "site#<idx>" alone, the same way JIT.App rows collapse
  // method names across VMs. First (lowest-pid) non-empty name wins; names
  // are the table's own strings, never copied.
  struct Agg {
    std::uint32_t site;
    hw::Pid pid;
    const std::string* name;
    std::uint64_t alloc_objects, alloc_bytes, dead_objects, dead_bytes;
    std::uint64_t misses = 0;
  };
  std::vector<Agg> aggs;
  aggs.reserve(sites.sites().size());
  for (const auto& [key, stats] : sites.sites())
    aggs.push_back({key.second, key.first, &stats.name, stats.alloc_objects,
                    stats.alloc_bytes, stats.dead_objects, stats.dead_bytes});
  // Each site's pids ascending, so the first non-empty name is the lowest pid's.
  std::sort(aggs.begin(), aggs.end(), [](const Agg& a, const Agg& b) {
    return a.site != b.site ? a.site < b.site : a.pid < b.pid;
  });
  std::size_t n = 0;
  for (const Agg& a : aggs) {
    if (n > 0 && aggs[n - 1].site == a.site) {
      Agg& agg = aggs[n - 1];
      if (agg.name->empty()) agg.name = a.name;
      agg.alloc_objects += a.alloc_objects;
      agg.alloc_bytes += a.alloc_bytes;
      agg.dead_objects += a.dead_objects;
      agg.dead_bytes += a.dead_bytes;
    } else {
      aggs[n++] = a;
    }
  }
  aggs.resize(n);

  // Names are looked up, never interned: a name no row carries has no id.
  const auto object_image = support::Name::lookup(kObjectImage);
  if (object_image) {
    char symbol[16] = {'s', 'i', 't', 'e', '#'};  // core::site_symbol, unallocated
    for (Agg& agg : aggs) {
      const char* end = std::to_chars(symbol + 5, symbol + sizeof symbol, agg.site).ptr;
      const auto name = support::Name::lookup(
          std::string_view(symbol, static_cast<std::size_t>(end - symbol)));
      const core::ProfileRow* pr = name ? profile.find(*object_image, *name) : nullptr;
      agg.misses = pr ? pr->count(hw::EventKind::kObjDmiss) : 0;
    }
  }
  // Misses desc, bytes allocated desc, site asc: a total order (sites are
  // distinct), so its first top_n are exactly a full sort's.
  const std::size_t k = std::min(top_n, aggs.size());
  std::partial_sort(aggs.begin(), aggs.begin() + static_cast<std::ptrdiff_t>(k), aggs.end(),
                    [](const Agg& a, const Agg& b) {
                      if (a.misses != b.misses) return a.misses > b.misses;
                      if (a.alloc_bytes != b.alloc_bytes) return a.alloc_bytes > b.alloc_bytes;
                      return a.site < b.site;
                    });

  const std::uint64_t total = profile.total(hw::EventKind::kObjDmiss);
  support::TextTable table({"Dmiss %", "Samples", "Alloc B", "Live B", "Objects",
                            "Ineff B/miss", "Allocation site"},
                           k, 80);
  for (std::size_t i = 0; i < k; ++i) {
    const Agg& r = aggs[i];
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(r.misses) / static_cast<double>(total);
    // Saturating: deaths charged from dead lines alone (alloc sighting in a
    // lost map) may exceed the sighted allocations.
    const std::uint64_t live_bytes =
        r.alloc_bytes > r.dead_bytes ? r.alloc_bytes - r.dead_bytes : 0;
    const std::uint64_t live_objects =
        r.alloc_objects > r.dead_objects ? r.alloc_objects - r.dead_objects : 0;
    // Bytes allocated per observed miss (integer): high = allocated-but-cold.
    const std::uint64_t ineff = r.alloc_bytes / (1 + r.misses);
    table.cell_fixed(pct, 4)
        .cell(r.misses)
        .cell(r.alloc_bytes)
        .cell(live_bytes)
        .cell(live_objects)
        .cell(ineff)
        .cell(*r.name)
        .end_row();
  }

  std::string out;
  table.render_to(out);
  const auto bin = [&](const char* symbol) -> std::uint64_t {
    const core::ProfileRow* row = profile.find(kObjectImage, symbol);
    return row ? row->count(hw::EventKind::kObjDmiss) : 0;
  };
  out += "\ndegradation: no_map ";
  out += std::to_string(bin(kUnresolvedObjNoMap));
  out += ", truncated ";
  out += std::to_string(bin(kUnresolvedObjTruncated));
  out += ", untracked ";
  out += std::to_string(bin(kUnresolvedObjUntracked));
  out += " of ";
  out += std::to_string(total);
  out += " samples\nobject maps: ";
  out += std::to_string(sites.maps_ingested());
  out += " ingested, ";
  out += std::to_string(sites.maps_truncated());
  out += " truncated\n";
  return out;
}

}  // namespace viprof::memprof

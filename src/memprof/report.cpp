#include "memprof/report.hpp"

#include <algorithm>
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
  // method names across VMs. First (lowest-pid) name wins.
  struct Agg {
    std::string name;
    std::uint64_t alloc_objects = 0, alloc_bytes = 0;
    std::uint64_t dead_objects = 0, dead_bytes = 0;
  };
  std::map<std::uint32_t, Agg> by_site;
  for (const auto& [key, stats] : sites.sites()) {
    Agg& agg = by_site[key.second];
    if (agg.name.empty()) agg.name = stats.name;
    agg.alloc_objects += stats.alloc_objects;
    agg.alloc_bytes += stats.alloc_bytes;
    agg.dead_objects += stats.dead_objects;
    agg.dead_bytes += stats.dead_bytes;
  }

  struct Row {
    std::uint32_t site;
    std::uint64_t misses;
    const Agg* agg;
  };
  std::vector<Row> rows;
  rows.reserve(by_site.size());
  // Names are looked up, never interned: a name no row carries has no id.
  const auto object_image = support::Name::lookup(kObjectImage);
  for (const auto& [site, agg] : by_site) {
    const auto symbol = object_image ? support::Name::lookup(core::site_symbol(site))
                                     : std::nullopt;
    const core::ProfileRow* pr = symbol ? profile.find(*object_image, *symbol) : nullptr;
    rows.push_back({site, pr ? pr->count(hw::EventKind::kObjDmiss) : 0, &agg});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.misses != b.misses) return a.misses > b.misses;
    if (a.agg->alloc_bytes != b.agg->alloc_bytes)
      return a.agg->alloc_bytes > b.agg->alloc_bytes;
    return a.site < b.site;
  });

  const std::uint64_t total = profile.total(hw::EventKind::kObjDmiss);
  support::TextTable table({"Dmiss %", "Samples", "Alloc B", "Live B", "Objects",
                            "Ineff B/miss", "Allocation site"});
  std::size_t emitted = 0;
  for (const Row& r : rows) {
    if (emitted >= top_n) break;
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(r.misses) / static_cast<double>(total);
    // Saturating: deaths charged from dead lines alone (alloc sighting in a
    // lost map) may exceed the sighted allocations.
    const std::uint64_t live_bytes =
        r.agg->alloc_bytes > r.agg->dead_bytes ? r.agg->alloc_bytes - r.agg->dead_bytes : 0;
    const std::uint64_t live_objects = r.agg->alloc_objects > r.agg->dead_objects
                                           ? r.agg->alloc_objects - r.agg->dead_objects
                                           : 0;
    // Bytes allocated per observed miss (integer): high = allocated-but-cold.
    const std::uint64_t ineff = r.agg->alloc_bytes / (1 + r.misses);
    table.add_row({support::fixed(pct, 4), std::to_string(r.misses),
                   std::to_string(r.agg->alloc_bytes), std::to_string(live_bytes),
                   std::to_string(live_objects), std::to_string(ineff), r.agg->name});
    ++emitted;
  }

  std::string out = table.render();
  out += "\n";
  const auto bin = [&](const char* symbol) -> std::uint64_t {
    const core::ProfileRow* row = profile.find(kObjectImage, symbol);
    return row ? row->count(hw::EventKind::kObjDmiss) : 0;
  };
  out += "degradation: no_map " + std::to_string(bin(kUnresolvedObjNoMap)) +
         ", truncated " + std::to_string(bin(kUnresolvedObjTruncated)) +
         ", untracked " + std::to_string(bin(kUnresolvedObjUntracked)) + " of " +
         std::to_string(total) + " samples\n";
  out += "object maps: " + std::to_string(sites.maps_ingested()) + " ingested, " +
         std::to_string(sites.maps_truncated()) + " truncated\n";
  return out;
}

}  // namespace viprof::memprof

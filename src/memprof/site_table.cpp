#include "memprof/site_table.hpp"

namespace viprof::memprof {

namespace {

void add_counts(SiteCounts& to, const SiteCounts& from) {
  to.alloc_objects += from.alloc_objects;
  to.alloc_bytes += from.alloc_bytes;
  to.dead_objects += from.dead_objects;
  to.dead_bytes += from.dead_bytes;
}

}  // namespace

SiteStats& SiteTable::site(hw::Pid pid, std::uint32_t idx) {
  SiteStats& s = sites_[{pid, idx}];
  if (s.name.empty()) s.name = core::site_symbol(idx);
  return s;
}

void SiteTable::adopt_name(hw::Pid pid, std::uint32_t idx, std::string_view name) {
  SiteStats& s = site(pid, idx);
  // Lexicographic-min among dictionary names: within a session every
  // intact map carries the same dictionary, and across sessions that
  // share a pid the winner is the same no matter which scope folds
  // first — fold order never shows in the rendered bytes.
  if (s.name == core::site_symbol(idx) || name < s.name) s.name = name;
}

void SiteTable::index(Partition& part) {
  if (part.indexed) return;
  for (const auto& map : part.maps) {
    part.seen_alloc.reserve(part.seen_alloc.size() + map->objects.size());
    for (const core::ObjectMapEntry& e : map->objects) part.seen_alloc.insert(e.obj_id);
    part.seen_dead.reserve(part.seen_dead.size() + map->dead.size());
    for (const core::ObjectDeath& d : map->dead) part.seen_dead.insert(d.obj_id);
  }
  part.indexed = true;
}

void SiteTable::charge(Partition& part, hw::Pid pid, const core::ObjectMapFile& file) {
  // Accumulate per site first: one table lookup per site, not per object.
  std::map<std::uint32_t, SiteCounts> delta;
  part.seen_alloc.reserve(part.seen_alloc.size() + file.objects.size());
  for (const core::ObjectMapEntry& e : file.objects) {
    if (!part.seen_alloc.insert(e.obj_id)) continue;
    SiteCounts& d = delta[e.site];
    ++d.alloc_objects;
    d.alloc_bytes += e.size;
  }
  part.seen_dead.reserve(part.seen_dead.size() + file.dead.size());
  for (const core::ObjectDeath& dead : file.dead) {
    if (!part.seen_dead.insert(dead.obj_id)) continue;
    SiteCounts& d = delta[dead.site];
    ++d.dead_objects;
    d.dead_bytes += dead.size;
  }
  for (const auto& [idx, d] : delta) {
    add_counts(part.charges[idx], d);
    add_counts(site(pid, idx), d);
  }
}

void SiteTable::ingest(const std::string& scope, hw::Pid pid,
                       std::shared_ptr<const core::ObjectMapFile> file) {
  ++maps_ingested_;
  if (file->truncated) ++maps_truncated_;
  for (const core::SiteName& sn : file->sites) adopt_name(pid, sn.site, sn.name);
  Partition& part = partitions_[{scope, pid}];
  index(part);
  charge(part, pid, *file);
  part.maps.push_back(std::move(file));
}

void SiteTable::merge(const SiteTable& other) {
  if (&other == this) {
    const SiteTable copy = other;
    merge(copy);
    return;
  }
  maps_ingested_ += other.maps_ingested_;
  maps_truncated_ += other.maps_truncated_;
  for (const auto& [key, theirs] : other.sites_) {
    // A fallback name carries no dictionary knowledge; the site still exists.
    if (theirs.name == core::site_symbol(key.second))
      site(key.first, key.second);
    else
      adopt_name(key.first, key.second, theirs.name);
  }
  for (const auto& [key, theirs] : other.partitions_) {
    const hw::Pid pid = key.second;
    auto [it, fresh] = partitions_.try_emplace(key);
    Partition& mine = it->second;
    if (fresh) {
      // The maps are shared read-only; the seen-sets are replayed from them
      // only if this partition is ever folded into again.
      mine.maps = theirs.maps;
      mine.charges = theirs.charges;
      for (const auto& [idx, c] : theirs.charges) add_counts(site(pid, idx), c);
      continue;
    }
    index(mine);
    for (const auto& map : theirs.maps) {
      charge(mine, pid, *map);
      mine.maps.push_back(map);
    }
  }
}

std::size_t SiteTable::seen_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, part] : partitions_)
    bytes += part.seen_alloc.bytes() + part.seen_dead.bytes();
  return bytes;
}

const std::string& SiteTable::name_of(hw::Pid pid, std::uint32_t idx) const {
  static const std::string kEmpty;
  const auto it = sites_.find({pid, idx});
  return it == sites_.end() ? kEmpty : it->second.name;
}

}  // namespace viprof::memprof

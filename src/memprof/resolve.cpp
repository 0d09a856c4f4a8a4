#include "memprof/resolve.hpp"

namespace viprof::memprof {

core::Resolution resolve_object(const core::CodeMapIndex* index, hw::Address addr,
                                std::uint64_t epoch, ObjectResolveStats* stats) {
  // The fixed names object rows report, interned once per process.
  static const struct {
    support::Name image{kObjectImage};
    support::Name no_map{kUnresolvedObjNoMap};
    support::Name truncated{kUnresolvedObjTruncated};
    support::Name untracked{kUnresolvedObjUntracked};
  } names;
  core::Resolution out;
  out.domain = core::SampleDomain::kObject;
  out.image = names.image;

  const core::CodeMapIndex::Lookup lk =
      index != nullptr
          ? index->lookup(addr, epoch)
          : core::CodeMapIndex::Lookup{std::nullopt, core::JitLookupMiss::kNoMaps};
  if (lk.hit) {
    out.symbol = lk.hit->symbol;
    out.maps_searched = lk.hit->maps_searched;
    out.symbol_base = lk.hit->address;
    out.symbol_size = lk.hit->size;
    if (stats != nullptr) {
      ++stats->resolved;
      stats->backward_steps += lk.hit->maps_searched;
    }
    return out;
  }
  if (stats != nullptr) ++stats->unresolved;
  switch (lk.miss) {
    case core::JitLookupMiss::kMissingEpochMap:
    case core::JitLookupMiss::kNoMaps:
      if (stats != nullptr) ++stats->no_map;
      out.symbol = names.no_map;
      break;
    case core::JitLookupMiss::kTruncatedMap:
      if (stats != nullptr) ++stats->truncated_map;
      out.symbol = names.truncated;
      break;
    default:
      if (stats != nullptr) ++stats->untracked;
      out.symbol = names.untracked;
      break;
  }
  return out;
}

}  // namespace viprof::memprof

#include "store/manifest.hpp"

#include "support/framed_text.hpp"

namespace viprof::store {

namespace {

// Every write is v2. Each manifest reads its v1 form too: an older build's
// store or fleet may still be on disk.
constexpr const char* kHeader = "viprof-store-manifest v2";
constexpr const char* kHeaderV1 = "viprof-store-manifest v1";
constexpr const char* kFleetHeader = "viprof-fleet-manifest v2";
constexpr const char* kFleetHeaderV1 = "viprof-fleet-manifest v1";

support::FrameHash manifest_hash() {
  return support::FrameHash::v2(support::frame_key(support::FrameKind::kStoreManifest));
}

support::FrameHash fleet_manifest_hash() {
  return support::FrameHash::v2(support::frame_key(support::FrameKind::kFleetManifest));
}

/// Consumes "<key> " off the front of `line`.
bool keyed(std::string_view& line, std::string_view key) {
  return line.size() > key.size() && line[key.size()] == ' ' &&
         support::scan_lit(line, key);
}

/// Exactly the given unsigned fields, whitespace-separated, nothing after.
template <typename... Fields>
bool scan_fields(std::string_view line, Fields&... fields) {
  return (support::scan_u64(line, fields) && ...) && support::at_end(line);
}

}  // namespace

std::string Manifest::serialize() const {
  std::string out = std::string(kHeader) + "\n";
  out += "gen " + std::to_string(generation) + "\n";
  out += "next-seq " + std::to_string(next_seq) + "\n";
  out += "next-segment " + std::to_string(next_segment) + "\n";
  out += "dropped " + std::to_string(dropped_intervals) + " " +
         std::to_string(dropped_rows) + " " + std::to_string(dropped_segments) + "\n";
  for (const ManifestSegment& s : segments) {
    out += "segment " + std::to_string(s.id) + " " + std::to_string(s.sealed ? 1 : 0) +
           " " + std::to_string(s.intervals) + " " + std::to_string(s.rows) + " " +
           std::to_string(s.tick_lo) + " " + std::to_string(s.tick_hi) + " " +
           std::to_string(s.seq_lo) + " " + std::to_string(s.seq_hi) + "\t" + s.name +
           "\n";
  }
  for (const std::string& t : tombstones) out += "tombstone " + t + "\n";
  support::append_crc_trailer(out, manifest_hash());
  return out;
}

std::optional<Manifest> Manifest::parse(const std::string& text) {
  Manifest m;
  const auto on_line = [&m](std::string_view line) {
    if (keyed(line, "gen")) return scan_fields(line, m.generation);
    if (keyed(line, "next-seq")) return scan_fields(line, m.next_seq);
    if (keyed(line, "next-segment")) return scan_fields(line, m.next_segment);
    if (keyed(line, "dropped"))
      return scan_fields(line, m.dropped_intervals, m.dropped_rows, m.dropped_segments);
    if (keyed(line, "segment")) {
      const std::size_t tab = line.find('\t');
      if (tab == std::string_view::npos) return false;
      ManifestSegment seg;
      std::uint64_t sealed = 0;
      if (!scan_fields(line.substr(0, tab), seg.id, sealed, seg.intervals, seg.rows,
                       seg.tick_lo, seg.tick_hi, seg.seq_lo, seg.seq_hi))
        return false;
      seg.sealed = sealed != 0;
      seg.name = std::string(line.substr(tab + 1));
      m.segments.push_back(std::move(seg));
      return true;
    }
    if (keyed(line, "tombstone")) {
      m.tombstones.emplace_back(line.substr(1));
      return true;
    }
    return false;
  };
  if (!support::for_each_framed_line(
          text, {{kHeader, manifest_hash()}, {kHeaderV1, support::FrameHash::v1()}},
          on_line))
    return std::nullopt;
  return m;
}

const ManifestSegment* Manifest::find(const std::string& name) const {
  for (const ManifestSegment& s : segments)
    if (s.name == name) return &s;
  return nullptr;
}

std::string FleetManifest::serialize() const {
  std::string out = std::string(kFleetHeader) + "\n";
  out += "gen " + std::to_string(generation) + "\n";
  const FleetLedger& l = ledger;
  out += "acked " + std::to_string(l.acked_sessions) + " " +
         std::to_string(l.acked_records) + "\n";
  out += "stored " + std::to_string(l.stored_records) + "\n";
  out += "lost " + std::to_string(l.lost_wire) + " " + std::to_string(l.lost_queue) +
         " " + std::to_string(l.lost_dead_records) + " " +
         std::to_string(l.lost_dead_sessions) + "\n";
  out += "failover " + std::to_string(l.failover_sessions) + " " +
         std::to_string(l.failover_records) + "\n";
  out += "refused " + std::to_string(l.refused_sessions) + "\n";
  out += "retried " + std::to_string(l.retried_sends) + " " +
         std::to_string(l.retried_giveups) + " " + std::to_string(l.circuit_opens) +
         "\n";
  out += "rebalances " + std::to_string(l.rebalances) + "\n";
  for (const FleetShard& s : shards) {
    out += "shard " + std::to_string(s.alive ? 1 : 0) + " " +
           std::to_string(s.sessions) + " " + std::to_string(s.records) + "\t" +
           s.name + "\t" + s.root + "\n";
  }
  support::append_crc_trailer(out, fleet_manifest_hash());
  return out;
}

std::optional<FleetManifest> FleetManifest::parse(const std::string& text) {
  FleetManifest m;
  FleetLedger& l = m.ledger;
  const auto on_line = [&m, &l](std::string_view line) {
    if (keyed(line, "gen")) return scan_fields(line, m.generation);
    if (keyed(line, "acked")) return scan_fields(line, l.acked_sessions, l.acked_records);
    if (keyed(line, "stored")) return scan_fields(line, l.stored_records);
    if (keyed(line, "lost"))
      return scan_fields(line, l.lost_wire, l.lost_queue, l.lost_dead_records,
                         l.lost_dead_sessions);
    if (keyed(line, "failover"))
      return scan_fields(line, l.failover_sessions, l.failover_records);
    if (keyed(line, "refused")) return scan_fields(line, l.refused_sessions);
    if (keyed(line, "retried"))
      return scan_fields(line, l.retried_sends, l.retried_giveups, l.circuit_opens);
    if (keyed(line, "rebalances")) return scan_fields(line, l.rebalances);
    if (keyed(line, "shard")) {
      const std::size_t tab1 = line.find('\t');
      if (tab1 == std::string_view::npos) return false;
      const std::size_t tab2 = line.find('\t', tab1 + 1);
      if (tab2 == std::string_view::npos) return false;
      FleetShard shard;
      std::uint64_t alive = 0;
      if (!scan_fields(line.substr(0, tab1), alive, shard.sessions, shard.records))
        return false;
      shard.alive = alive != 0;
      shard.name = std::string(line.substr(tab1 + 1, tab2 - tab1 - 1));
      shard.root = std::string(line.substr(tab2 + 1));
      m.shards.push_back(std::move(shard));
      return true;
    }
    return false;
  };
  if (!support::for_each_framed_line(
          text,
          {{kFleetHeader, fleet_manifest_hash()}, {kFleetHeaderV1, support::FrameHash::v1()}},
          on_line))
    return std::nullopt;
  return m;
}

const FleetShard* FleetManifest::find(const std::string& name) const {
  for (const FleetShard& s : shards)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace viprof::store

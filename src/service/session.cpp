#include "service/session.hpp"

#include <algorithm>
#include <optional>

namespace viprof::service {

std::string render_session_stats(const std::map<std::string, SessionStats>& rows) {
  support::TextTable table({"Session", "Records", "Batches", "Dropped", "Torn", "VMs", "State"});
  for (const auto& [id, st] : rows) {
    table.cell(id)
        .cell(st.records_ingested)
        .cell(st.batches_applied)
        .cell(st.batches_dropped)
        .cell(st.torn_frames)
        .cell(st.registrations)
        .cell(st.ended ? "ended" : "streaming")
        .end_row();
  }
  return table.render();
}

namespace {

/// The kind a map file name carries ("map.<E>", "omap.<E>"), or nullopt.
std::optional<MapKind> map_kind(std::string_view path) {
  const std::string_view name = path.substr(path.rfind('/') + 1);
  if (name.starts_with("map.")) return MapKind::kCode;
  if (name.starts_with("omap.")) return MapKind::kObject;
  return std::nullopt;
}

/// The shelf a `kind` map "<dir>/<pid>/<name>" belongs on: (kind, dir,
/// pid) for exactly the (dir, pid) whose reload lists the file.
std::optional<std::tuple<MapKind, std::string, hw::Pid>> shelf_of(MapKind kind,
                                                                  const std::string& path) {
  const auto pid = core::pid_from_map_path(path);
  if (!pid) return std::nullopt;
  const std::size_t prev = path.rfind('/', path.rfind('/') - 1);
  if (prev == std::string::npos) return std::nullopt;
  return std::make_tuple(kind, path.substr(0, prev), *pid);
}

}  // namespace

SessionStats ServerSession::stats() const {
  SessionStats out;
  out.frames = frames_.load(std::memory_order_relaxed);
  out.torn_frames = torn_frames_.load(std::memory_order_relaxed);
  out.files = files_.load(std::memory_order_relaxed);
  out.batches_enqueued = batches_enqueued_.load(std::memory_order_relaxed);
  out.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  out.batches_dropped = batches_dropped_.load(std::memory_order_relaxed);
  out.records_ingested = records_ingested_.load(std::memory_order_relaxed);
  out.records_dropped = records_dropped_.load(std::memory_order_relaxed);
  out.registrations = registrations_.load(std::memory_order_relaxed);
  out.registrations_rejected = registrations_rejected_.load(std::memory_order_relaxed);
  out.ended = ended_.load(std::memory_order_relaxed);
  return out;
}

core::RegisterStatus ServerSession::register_vm(const core::VmRegistration& reg) {
  core::RegisterStatus status;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    status = table_.add(reg);
  }
  if (status == core::RegisterStatus::kOk)
    registrations_.fetch_add(1, std::memory_order_relaxed);
  else
    registrations_rejected_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

std::uint64_t ServerSession::registration_version() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return table_.version();
}

std::vector<core::VmRegistration> ServerSession::registrations() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return table_.all();
}

os::Vfs ServerSession::world() const {
  std::lock_guard<std::mutex> lock(world_mu_);
  return world_;
}

void ServerSession::store_file(const std::string& path, std::string bytes) {
  const std::uint64_t t0 = support::monotonic_ns();
  files_.fetch_add(1, std::memory_order_relaxed);
  const auto kind = map_kind(path);
  const auto shelf = kind ? shelf_of(*kind, path) : std::nullopt;
  if (kind && map_bytes_received_ != nullptr) map_bytes_received_->inc(bytes.size());
  // Salvaged by file name outside every lock, exactly as a reload does, so
  // the kept map equals what a reload would parse.
  KeptMap kept;
  if (shelf && *kind == MapKind::kCode) {
    kept.code = std::make_shared<const core::CodeMapFile>(
        core::CodeMapFile::salvage_file(path, bytes).file);
  } else if (shelf) {
    kept.object = std::make_shared<const core::ObjectMapFile>(
        core::ObjectMapFile::salvage_file(path, bytes).file);
    kept.code = std::make_shared<const core::CodeMapFile>(kept.object->to_code_map());
  }
  if (shelf && map_bytes_parsed_ != nullptr) map_bytes_parsed_->inc(bytes.size());
  {
    std::lock_guard<std::mutex> lock(world_mu_);
    world_.write(path, std::move(bytes));
  }
  if (!shelf) return;
  // Shelved before the ceiling moves: a batch stamped at this epoch finds
  // the map on its shelf.
  shelve(*shelf, path, std::move(kept));
  if (*kind == MapKind::kObject && fold_us_ != nullptr)
    fold_us_->add(static_cast<double>(support::monotonic_ns() - t0) / 1000.0);
  // Both kinds move the pid's ceiling: a batch of epoch E needs the code
  // and the object map of E.
  const hw::Pid pid = std::get<2>(*shelf);
  const auto epoch = *kind == MapKind::kCode ? core::CodeMapFile::epoch_from_path(path)
                                             : core::ObjectMapFile::epoch_from_path(path);
  if (!epoch) return;
  std::lock_guard<support::TracedMutex> lock(ingest_mu_);
  const auto it = ceilings_->find(pid);
  if (it == ceilings_->end() || *epoch > it->second) {
    // Copy-on-write: stamped batches keep the map they were stamped with.
    auto next = std::make_shared<CeilingMap>(*ceilings_);
    (*next)[pid] = *epoch;
    ceilings_ = std::move(next);
  }
}

void ServerSession::shelve(const ShelfKey& key, const std::string& path, KeptMap kept) {
  const hw::Pid pid = std::get<2>(key);
  bool refold = false;
  {
    std::lock_guard<support::TracedMutex> lock(shelf_mu_);
    MapShelf& shelf = shelves_[key];
    const bool fresh = shelf.maps.insert_or_assign(path, kept).second;
    if (kept.object && fresh) {
      shelf.sites.ingest(id_, pid, kept.object);
    } else if (kept.object) {
      // Re-streamed path: the old map's charges cannot be taken back out
      // of the fold, so rebuild the table from the kept maps.
      memprof::SiteTable rebuilt;
      for (const auto& [kept_path, map] : shelf.maps) rebuilt.ingest(id_, pid, map.object);
      shelf.sites = std::move(rebuilt);
      refold = true;
    }
  }
  if (kept.object && maps_folded_ != nullptr) maps_folded_->inc();
  if (refold && refolds_ != nullptr) refolds_->inc();
}

const core::ArchiveResolver* ServerSession::resolver() {
  if (const auto* ready = resolver_ready_.load(std::memory_order_acquire)) return ready;
  std::lock_guard<std::mutex> lock(world_mu_);
  if (!resolver_ && world_.exists("archive/manifest")) {
    resolver_ = std::make_unique<core::ArchiveResolver>(
        world_, "archive", /*vm_aware=*/true, /*load_jit_maps=*/false);
    if (telemetry_ != nullptr && resolver_->malformed_lines() > 0)
      telemetry_->counter("service.archive.malformed_lines")
          .inc(resolver_->malformed_lines());
    resolver_ready_.store(resolver_.get(), std::memory_order_release);
  }
  return resolver_.get();
}

core::Profile ServerSession::merged_profile() const {
  core::Profile merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard<support::TracedMutex> lock(stripe->mu);
    merged.merge(stripe->profile);
  }
  return merged;
}

core::Profile ServerSession::profile_since_epoch(std::uint64_t since) const {
  core::Profile merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard<support::TracedMutex> lock(stripe->mu);
    for (auto it = stripe->epoch_profiles.lower_bound(since);
         it != stripe->epoch_profiles.end(); ++it)
      merged.merge(it->second);
  }
  return merged;
}

std::map<std::uint64_t, core::Profile> ServerSession::epoch_profiles() const {
  std::map<std::uint64_t, core::Profile> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard<support::TracedMutex> lock(stripe->mu);
    for (const auto& [epoch, partial] : stripe->epoch_profiles) out[epoch].merge(partial);
  }
  return out;
}

core::CallGraph ServerSession::merged_graph() const {
  core::CallGraph merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard<support::TracedMutex> lock(stripe->mu);
    merged.merge(stripe->graph);
  }
  return merged;
}

void ServerSession::fold_object_sites(memprof::SiteTable& sites) const {
  const std::vector<core::VmRegistration> regs = registrations();
  std::lock_guard<support::TracedMutex> lock(shelf_mu_);
  for (const core::VmRegistration& reg : regs) {
    if (reg.obj_map_dir.empty()) continue;
    const auto it = shelves_.find({MapKind::kObject, reg.obj_map_dir, reg.pid});
    if (it != shelves_.end()) sites.merge(it->second.sites);
  }
}

std::size_t ServerSession::site_bytes() const {
  std::lock_guard<support::TracedMutex> lock(shelf_mu_);
  std::size_t bytes = 0;
  for (const auto& [key, shelf] : shelves_) bytes += shelf.sites.seen_bytes();
  return bytes;
}

core::CodeMapIndex ServerSession::map_index(MapKind kind, const std::string& dir,
                                            hw::Pid pid) const {
  std::vector<std::shared_ptr<const core::CodeMapFile>> maps;
  {
    std::lock_guard<support::TracedMutex> lock(shelf_mu_);
    const auto it = shelves_.find({kind, dir, pid});
    if (it != shelves_.end())
      for (const auto& [path, kept] : it->second.maps) maps.push_back(kept.code);
  }
  core::CodeMapIndex index;
  for (const auto& map : maps) index.add(*map);
  return index;
}

ServerSession::FlushDelta ServerSession::take_flush() {
  FlushDelta delta;
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<support::TracedMutex> lock(stripe->mu);
    delta.profile.merge(std::move(stripe->pending));
    stripe->pending = core::Profile{};
    lo = std::min(lo, stripe->pending_epoch_lo);
    hi = std::max(hi, stripe->pending_epoch_hi);
    delta.records += stripe->pending_records;
    delta.any = delta.any || stripe->pending_any;
    stripe->pending_epoch_lo = ~0ull;
    stripe->pending_epoch_hi = 0;
    stripe->pending_records = 0;
    stripe->pending_any = false;
  }
  if (lo <= hi) {
    delta.epoch_lo = lo;
    delta.epoch_hi = hi;
  }
  return delta;
}

support::ArenaVector<core::LoggedSample> ServerSession::parse_batch(
    hw::EventKind event, std::string_view body, support::Arena& arena) {
  support::ArenaVector<core::LoggedSample> samples(arena);
  support::ArenaVector<std::uint64_t> seqs(arena);
  core::SampleLineDamage damage;
  // Keyed by the event the batch header names: a line of another event's
  // log fails its frame and is counted as damage.
  core::decode_sample_lines(body, core::sample_line_hash(event), samples, seqs, damage);
  EventStream& stream = streams_[hw::event_index(event)];
  std::size_t kept = 0;
  {
    std::lock_guard<support::TracedMutex> lock(stream.mu);
    kept = stream.parser.admit({samples.data(), samples.size()},
                               {seqs.data(), seqs.size()}, damage);
  }
  samples.truncate(kept);
  return samples;
}

core::SampleLogReadStatus ServerSession::read_status(hw::EventKind event) const {
  const EventStream& stream = streams_[hw::event_index(event)];
  std::lock_guard<support::TracedMutex> lock(stream.mu);
  return stream.parser.status();
}

void ServerSession::apply(std::uint64_t apply_seq, BatchResult result) {
  Stripe& stripe = *stripes_[apply_seq % stripes_.size()];
  {
    std::lock_guard<support::TracedMutex> lock(stripe.mu);
    stripe.profile.merge(result.partial);
    if (result.partial.row_count() != 0) stripe.pending_any = true;
    stripe.pending.merge(std::move(result.partial));
    stripe.pending_records += result.records;
    for (auto& [epoch, partial] : result.epoch_partial) {
      stripe.epoch_profiles[epoch].merge(std::move(partial));
      stripe.pending_epoch_lo = std::min(stripe.pending_epoch_lo, epoch);
      stripe.pending_epoch_hi = std::max(stripe.pending_epoch_hi, epoch);
    }
    stripe.graph.merge(result.arcs);
  }
  records_ingested_.fetch_add(result.records, std::memory_order_relaxed);
  batches_applied_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace viprof::service

#include "service/code_map_cache.hpp"

namespace viprof::service {

CodeMapCache::~CodeMapCache() {
  // No reader can be in flight once the owner destroys the cache.
  delete snapshot_.load(std::memory_order_acquire);
}

CodeMapCache::IndexPtr CodeMapCache::get(const std::string& session, hw::Pid pid,
                                         std::uint64_t ceiling,
                                         const Builder& build) {
  std::string key;
  key.reserve(session.size() + 24);
  key += session;
  key += '/';
  key += std::to_string(pid);
  key += '@';
  key += std::to_string(ceiling);

  // Lock-free fast path: resolve against the current immutable snapshot.
  // Counting in before the (seq_cst) load is what lets a writer that sees
  // no readers after its (seq_cst) store free the tables it replaced.
  {
    readers_.fetch_add(1, std::memory_order_seq_cst);
    const Table* table = snapshot_.load(std::memory_order_seq_cst);
    const auto it = table->entries.find(key);
    IndexPtr hit;
    if (it != table->entries.end()) {
      it->second->last_used.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit = it->second->index;
    }
    readers_.fetch_sub(1, std::memory_order_release);
    if (hit) return hit;
  }

  // Miss: writers serialize; re-check under the lock so concurrent misses
  // on one key build once. Only writers store the snapshot, so the lock
  // orders this load after every install.
  std::lock_guard<support::TracedMutex> lock(mu_);
  const Table* table = snapshot_.load(std::memory_order_relaxed);
  const auto it = table->entries.find(key);
  if (it != table->entries.end()) {
    it->second->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->index;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  auto index = std::make_shared<core::CodeMapIndex>(build());
  index->prepare();  // workers only run const queries afterwards
  auto entry = std::make_shared<Entry>();
  entry->index = index;
  entry->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);

  // Copy-on-write install: copy the shared_ptr map (entries themselves are
  // shared), evict down to capacity, insert, swap the snapshot.
  auto next = std::make_unique<Table>(*table);
  while (next->entries.size() >= capacity_) {
    auto victim = next->entries.begin();
    std::uint64_t oldest = ~0ull;
    for (auto cand = next->entries.begin(); cand != next->entries.end(); ++cand) {
      const std::uint64_t used =
          cand->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = cand;
      }
    }
    next->entries.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  next->entries.emplace(std::move(key), std::move(entry));
  snapshot_.store(next.release(), std::memory_order_seq_cst);
  retired_.emplace_back(table);
  // Zero readers now means every reader that loaded a retired table has
  // counted out (its release pairs with this acquire); later ones load
  // the new snapshot.
  if (readers_.load(std::memory_order_seq_cst) == 0) retired_.clear();
  return index;
}

void CodeMapCache::attach_telemetry(support::Telemetry& telemetry) {
  mu_.attach(telemetry);
  tele_hits_ = &telemetry.counter("service.map_cache.hits");
  tele_misses_ = &telemetry.counter("service.map_cache.misses");
  tele_evictions_ = &telemetry.counter("service.map_cache.evictions");
}

void CodeMapCache::publish() {
  if (tele_hits_ == nullptr) return;
  std::uint64_t dh, dm, de;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    dh = hits() - published_hits_;
    dm = misses() - published_misses_;
    de = evictions() - published_evictions_;
    published_hits_ += dh;
    published_misses_ += dm;
    published_evictions_ += de;
  }
  tele_hits_->inc(dh);
  tele_misses_->inc(dm);
  tele_evictions_->inc(de);
}

}  // namespace viprof::service

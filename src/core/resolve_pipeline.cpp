#include "core/resolve_pipeline.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace viprof::core {

ResolvePipeline::ResolvePipeline(PipelineConfig config) : config_(config) {
  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads_ > 1) {
    pool_ = std::make_unique<support::ThreadPool>(threads_);
    if (config_.telemetry != nullptr) pool_->attach_telemetry(*config_.telemetry);
  }
}

ResolvePipeline::~ResolvePipeline() = default;

std::size_t ResolvePipeline::shard_count(std::size_t count) const {
  if (threads_ <= 1 || count == 0) return 1;
  const std::size_t min_shard = std::max<std::size_t>(1, config_.min_shard);
  return std::min(threads_, std::max<std::size_t>(1, count / min_shard));
}

ResolveStats ResolvePipeline::aggregate_profile(
    const std::vector<LoggedSample>& samples, hw::EventKind event,
    const ResolveFn& fn, Profile& out) {
  ResolveStats total;
  const std::size_t n = samples.size();
  const std::size_t shards = shard_count(n);
  if (shards <= 1) {
    for (const LoggedSample& s : samples) out.add(event, fn(s, total));
    return total;
  }

  std::vector<Profile> parts(shards);
  std::vector<ResolveStats> stats(shards);
  pool_->parallel_for(shards, [&](std::size_t k) {
    const std::size_t lo = n * k / shards;
    const std::size_t hi = n * (k + 1) / shards;
    for (std::size_t i = lo; i < hi; ++i) parts[k].add(event, fn(samples[i], stats[k]));
  });
  // Merges commute (DESIGN.md §9): the shards fold in any order into the
  // same ranking as the serial loop.
  for (std::size_t k = 0; k < shards; ++k) {
    out.merge(std::move(parts[k]));
    total.merge(stats[k]);
  }
  return total;
}

void ResolvePipeline::aggregate_callgraph(const std::vector<LoggedSample>& samples,
                                          CallGraph& out) {
  const std::size_t n = samples.size();
  const std::size_t shards = shard_count(n);
  if (shards <= 1) {
    for (const LoggedSample& s : samples) out.add(s);
    return;
  }

  std::vector<CallGraph> parts(shards, CallGraph(out.resolver()));
  pool_->parallel_for(shards, [&](std::size_t k) {
    const std::size_t lo = n * k / shards;
    const std::size_t hi = n * (k + 1) / shards;
    for (std::size_t i = lo; i < hi; ++i) parts[k].add(samples[i]);
  });
  for (const CallGraph& part : parts) out.merge(part);
}

}  // namespace viprof::core

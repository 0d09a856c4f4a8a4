// Parallel sharded resolution pipeline (DESIGN.md §9).
//
// Post-processing is where VIProf spends its cycles by design — the paper
// moves cost off the sampling path and into offline analysis. This pipeline
// makes the offline resolve→aggregate step scale with host cores without
// changing a byte of output: samples are partitioned into contiguous
// shards, each worker resolves its shard into a private Profile/CallGraph
// and ResolveStats, and the partials are merged. Merges are commutative
// sums and every table ranks in one canonical order (count, then names),
// so the rendered output equals the serial loop's at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolver.hpp"
#include "core/sample_log.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace viprof::core {

struct PipelineConfig {
  /// Worker threads; 1 = serial (no pool), 0 = one per hardware thread.
  std::size_t threads = 1;
  /// Minimum samples per shard — below threads*min_shard the pipeline runs
  /// inline, because thread handoff would cost more than it saves.
  std::size_t min_shard = 2048;
  /// When set, the worker pool's queue lock and task counters register
  /// here (keys "pool.*") — the same contention evidence the service
  /// publishes, for offline runs.
  support::Telemetry* telemetry = nullptr;
};

class ResolvePipeline {
 public:
  /// Resolves one sample; tallies go into the caller-provided stats so the
  /// function can be called concurrently (see Resolver's contract).
  using ResolveFn = std::function<Resolution(const LoggedSample&, ResolveStats&)>;

  explicit ResolvePipeline(PipelineConfig config = {});
  ~ResolvePipeline();

  /// Resolves every sample with `fn` and aggregates into `out` under
  /// `event`. Returns the summed shard stats (not yet folded anywhere).
  /// `out` may already hold rows from earlier events; output is
  /// byte-identical to the serial loop for any thread count.
  ResolveStats aggregate_profile(const std::vector<LoggedSample>& samples,
                                 hw::EventKind event, const ResolveFn& fn,
                                 Profile& out);

  /// Same sharding for call-graph arcs. Resolution happens through
  /// `out`'s resolver; outcome tallies fold into that resolver's atomic
  /// counters as in the serial path.
  void aggregate_callgraph(const std::vector<LoggedSample>& samples, CallGraph& out);

  /// Worker count the pipeline will actually use (>= 1).
  std::size_t threads() const { return threads_; }

 private:
  /// Shards for `count` samples: 1..threads_, never starving min_shard.
  std::size_t shard_count(std::size_t count) const;

  PipelineConfig config_;
  std::size_t threads_ = 1;
  std::unique_ptr<support::ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace viprof::core

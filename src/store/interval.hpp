// The unit of storage in the profile store: one aggregated profile over a
// tick interval of one session.
//
// The continuous-profiling service answers "what is hot right now"; the
// store keeps history by persisting *interval profiles* — each one the
// aggregate the server flushed for a (session, pid) over a tick range and
// the epoch range that was live during it. Queries fold intervals back
// together with Profile::merge. The fold is commutative, so every answer is
// byte-identical however the intervals are physically arranged (unsealed,
// sealed, or compacted — DESIGN.md §11) and in whatever order they fold.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "core/report.hpp"

namespace viprof::store {

struct IntervalProfile {
  std::string session;
  std::uint64_t pid = 0;
  std::uint64_t tick_lo = 0, tick_hi = 0;    // inclusive tick range
  std::uint64_t epoch_lo = 0, epoch_hi = 0;  // epochs live during the range
  /// Store-assigned ingest sequence number: the interval's age stamp, which
  /// orders segments for retention and manifest rebuild. A compacted
  /// interval keeps the smallest first_seq of its constituents. Queries
  /// never look at it.
  std::uint64_t first_seq = 0;
  core::Profile profile;
};

/// The compactor folds intervals with equal merge keys into one.
inline auto merge_key(const IntervalProfile& iv) {
  return std::tie(iv.session, iv.pid, iv.tick_lo, iv.tick_hi);
}

}  // namespace viprof::store

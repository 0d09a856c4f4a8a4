// opannotate analogue: distribution of samples *within* one symbol's body.
//
// OProfile ships opannotate to locate hot basic blocks inside a function;
// the same capability falls out of VIProf's resolution metadata (each
// resolution carries the resolved symbol's extent). Samples matching the
// requested (image, symbol) are bucketed by their offset into the body.
// For JIT methods this works across GC moves: the offset is computed
// against the body's address *in the epoch the sample was taken*, so the
// intra-method distribution is stable even though the body wandered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sample_log.hpp"
#include "hw/types.hpp"

namespace viprof::core {

struct Resolution;

struct Annotation {
  std::string image;
  std::string symbol;
  std::uint64_t symbol_size = 0;   // from the first matching resolution
  std::uint64_t total_samples = 0;
  std::uint64_t out_of_range = 0;  // extent changed between epochs (rare)
  std::vector<std::uint64_t> buckets;

  /// ASCII rendering: one line per bucket with offset range and bar.
  std::string render() const;
};

/// Bucket samples matching (image, symbol). `resolve` is any callable
/// LoggedSample -> Resolution (live Resolver, ArchiveResolver, ...).
template <typename ResolveFn>
Annotation annotate(const std::vector<LoggedSample>& samples, const ResolveFn& resolve,
                    const std::string& image, const std::string& symbol,
                    std::size_t bucket_count = 16);

}  // namespace viprof::core

#include "core/resolver.hpp"  // Resolution definition for the template body

namespace viprof::core {

template <typename ResolveFn>
Annotation annotate(const std::vector<LoggedSample>& samples, const ResolveFn& resolve,
                    const std::string& image, const std::string& symbol,
                    std::size_t bucket_count) {
  Annotation out;
  out.image = image;
  out.symbol = symbol;
  out.buckets.assign(bucket_count == 0 ? 1 : bucket_count, 0);
  const support::Name want_image(image), want_symbol(symbol);
  for (const LoggedSample& s : samples) {
    const Resolution res = resolve(s);
    if (res.image != want_image || res.symbol != want_symbol) continue;
    ++out.total_samples;
    if (res.symbol_size == 0 || s.pc < res.symbol_base ||
        s.pc >= res.symbol_base + res.symbol_size) {
      ++out.out_of_range;
      continue;
    }
    if (out.symbol_size == 0) out.symbol_size = res.symbol_size;
    const std::uint64_t offset = s.pc - res.symbol_base;
    const std::size_t bucket = static_cast<std::size_t>(
        (offset * out.buckets.size()) / res.symbol_size);
    ++out.buckets[bucket < out.buckets.size() ? bucket : out.buckets.size() - 1];
  }
  return out;
}

}  // namespace viprof::core

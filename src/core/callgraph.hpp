// Cross-layer call-graph profiling (paper Section 4.2: "VIProf also extends
// the call graph functionality of Oprofile to include call sequence
// profiles across layers").
//
// Each sample optionally carries a one-level return address; arcs aggregate
// (caller symbol → callee symbol) pairs after both endpoints are resolved —
// so an arc can cross layers: a JIT.App method calling into libc, a JIT
// method triggering a kernel path, etc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/resolver.hpp"
#include "core/row_index.hpp"
#include "core/sample_log.hpp"
#include "hw/event.hpp"

namespace viprof::support {
class TextTable;
}  // namespace viprof::support

namespace viprof::core {

/// One (caller -> callee) arc; the four endpoint names are interned ids.
struct CallArc {
  support::Name caller_image;
  support::Name caller_symbol;
  support::Name callee_image;
  support::Name callee_symbol;
  SampleDomain caller_domain = SampleDomain::kUnknown;
  SampleDomain callee_domain = SampleDomain::kUnknown;
  std::uint64_t count = 0;

  /// True when caller and callee live in different stack layers.
  bool crosses_layers() const { return caller_domain != callee_domain; }
};

/// Appends `arc` as one row of an arc table ("Samples", "Caller", "->",
/// "Callee"), each endpoint printed as "image:symbol". Every arc table
/// prints its rows through this.
void add_arc_row(support::TextTable& table, const CallArc& arc);

class CallGraph {
 public:
  /// A graph fed through add_resolved() only — the profile service resolves
  /// both endpoints itself (its resolver choice varies per batch) and hands
  /// this graph finished Resolutions.
  CallGraph() = default;

  explicit CallGraph(const Resolver& resolver) : resolver_(&resolver) {}

  const Resolver& resolver() const { return *resolver_; }

  /// Accounts one sample; samples without a caller PC are ignored.
  /// Requires the resolver-taking constructor.
  void add(const LoggedSample& sample);

  /// Accounts one already-resolved (caller → callee) pair; works on
  /// resolver-less graphs. Callers skip samples without a caller PC to
  /// match add()'s accounting. The counted overload folds `count` repeats
  /// of the same pair in one arc lookup, which hashes four name ids.
  void add_resolved(const Resolution& caller, const Resolution& callee,
                    std::uint64_t count = 1);

  /// Adds every arc (and the sample count) of `other` into this graph.
  /// Commutative, as Profile::merge: an endpoint that arrives with two
  /// domains keeps the lower SampleDomain, so graphs merged in any order
  /// rank the same arcs with the same domains.
  void merge(const CallGraph& other);

  /// Arcs sorted by count (descending), ties by the four endpoint names
  /// (caller image, caller symbol, callee image, callee symbol).
  std::vector<CallArc> ranked() const;

  /// Only arcs whose endpoints are in different domains.
  std::vector<CallArc> cross_layer_arcs() const;

  std::uint64_t total_arcs() const { return arcs_.size(); }
  std::uint64_t total_samples() const { return samples_; }
  const std::vector<CallArc>& arcs() const { return arcs_; }

  /// arc_hash() of arc `arc`, cached at insertion.
  std::uint64_t arc_hash_of(std::size_t arc) const {
    return index_.hash(static_cast<std::uint32_t>(arc));
  }

  /// Arc positions of the first `top_n` arcs in ranked() order.
  std::vector<std::uint32_t> rank(std::size_t top_n) const;

  std::string render(std::size_t top_n) const;

 private:
  /// The arc with `like`'s endpoints (hashing to `hash`), appended with a
  /// zero count if new; an endpoint keeps the lower of its two domains.
  std::size_t arc_slot(const CallArc& like, std::uint64_t hash);
  const Resolver* resolver_ = nullptr;
  std::vector<CallArc> arcs_;
  /// The four endpoint names -> index into arcs_.
  RowIndex index_;
  std::uint64_t samples_ = 0;
};

}  // namespace viprof::core

// Order-independence property suite (DESIGN.md §9, §14). Profile and
// CallGraph merges are commutative sums and every table ranks in one
// canonical order (count, then names), so the invariant under test is:
// any partition of a sample stream, merged in any order — and any
// ServerSession stripe count, apply order, thread interleaving and flush
// cut points — renders the serial fold's bytes. A row or arc endpoint that
// arrives with two domains keeps the lowest SampleDomain, in every order.
// Names are interned ids, so the order in which names were first interned
// must not show in any byte either.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <tuple>
#include <utility>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolver.hpp"
#include "service/query.hpp"
#include "service/session.hpp"
#include "store/segment.hpp"
#include "support/framed_text.hpp"
#include "support/interner.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;
const std::vector<hw::EventKind> kEvents = {kTime, kDmiss};
constexpr std::size_t kAll = 1000;  // more rows than any input has

struct Sample {
  Resolution res;
  hw::EventKind event = kTime;
  std::uint64_t epoch = 0;
  std::uint64_t count = 1;
  bool has_caller = false;
  Resolution caller;
};

Resolution make_res(std::uint64_t id, SampleDomain domain, bool resolved) {
  Resolution r;
  if (resolved) {
    r.image = (id % 3 == 0) ? "RVM.map" : (id % 3 == 1) ? "vmlinux" : "libc.so";
    r.symbol = "sym-" + std::to_string(id);
    r.symbol_base = 0x6000'0000 + id * 0x1000;
    r.symbol_size = 0x800;
  } else {
    // The unresolved degradation bins: distinct names, shared base 0.
    r.image = "[anon]";
    r.symbol = "unresolved." + std::to_string(id % 4);
  }
  r.domain = domain;
  return r;
}

/// A seeded stream chopped into batches. Counts are 1 or 2 over a small
/// symbol pool, so many rows and arcs tie; some rows are unresolved bins,
/// and a slice of ids flips domain between occurrences.
std::vector<std::vector<Sample>> make_batches(support::Xoshiro256& rng, std::size_t batches,
                                              std::size_t per_batch) {
  std::vector<std::vector<Sample>> out(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < per_batch; ++i) {
      Sample s;
      const std::uint64_t id = rng.below(41);
      SampleDomain domain = (id % 2 == 0) ? SampleDomain::kJit : SampleDomain::kImage;
      if (id % 7 == 0 && rng.below(2) == 0) domain = SampleDomain::kKernel;
      s.res = make_res(id, domain, rng.below(100) < 85);
      s.event = rng.below(10) < 7 ? kTime : kDmiss;
      s.epoch = b / 4 + rng.below(2);
      s.count = 1 + rng.below(2);
      if (rng.below(3) != 0) {
        s.has_caller = true;
        const std::uint64_t caller = rng.below(9);
        s.caller = make_res(caller, caller == 0 && rng.below(2) ? SampleDomain::kBoot
                                                                : SampleDomain::kImage,
                            rng.below(10) != 0);
      }
      out[b].push_back(std::move(s));
    }
  }
  return out;
}

std::vector<Sample> flatten(const std::vector<std::vector<Sample>>& batches) {
  std::vector<Sample> out;
  for (const auto& batch : batches) out.insert(out.end(), batch.begin(), batch.end());
  return out;
}

void add_to(Profile& p, const Sample& s) { p.add(s.event, s.res, s.count); }
void add_to(CallGraph& g, const Sample& s) {
  if (s.has_caller) g.add_resolved(s.caller, s.res, s.count);
}

template <typename Agg>
Agg serial_fold(const std::vector<Sample>& samples) {
  Agg out;
  for (const Sample& s : samples) add_to(out, s);
  return out;
}

/// Folds `parts` by repeatedly merging a random part into another random
/// part — any merge order, any association — by copy or by move.
template <typename Agg>
Agg reduce_shuffled(std::vector<Agg> parts, support::Xoshiro256& rng) {
  while (parts.size() > 1) {
    const std::size_t from = rng.below(parts.size());
    std::size_t into = rng.below(parts.size() - 1);
    if (into >= from) ++into;
    if constexpr (std::is_same_v<Agg, Profile>) {
      if (rng.below(2) == 0) parts[into].merge(std::move(parts[from]));
      else parts[into].merge(parts[from]);
    } else {
      parts[into].merge(parts[from]);
    }
    parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(from));
  }
  return std::move(parts.front());
}

void expect_same_ranked(const Profile& got, const Profile& want, const std::string& ctx) {
  for (hw::EventKind primary : kEvents) {
    const std::vector<ProfileRow> g = got.ranked(primary);
    const std::vector<ProfileRow> w = want.ranked(primary);
    ASSERT_EQ(g.size(), w.size()) << ctx;
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(std::tie(g[i].image, g[i].symbol), std::tie(w[i].image, w[i].symbol))
          << ctx << " row " << i;
      EXPECT_EQ(g[i].domain, w[i].domain) << ctx << " row " << i;
      EXPECT_TRUE(std::equal(std::begin(g[i].counts), std::end(g[i].counts),
                             std::begin(w[i].counts)))
          << ctx << " row " << i;
    }
  }
  for (const hw::EventKind e : hw::kAllEventKinds)
    EXPECT_EQ(got.total(e), want.total(e)) << ctx;
}

void expect_same_profile_bytes(const Profile& got, const Profile& want,
                               const Profile& other, const std::string& ctx) {
  for (const std::size_t top : {std::size_t{0}, std::size_t{1}, std::size_t{7}, kAll}) {
    EXPECT_EQ(got.render(kEvents, top), want.render(kEvents, top)) << ctx << " top " << top;
    EXPECT_EQ(got.render({kDmiss}, top), want.render({kDmiss}, top))
        << ctx << " top " << top;
    for (const hw::EventKind e : kEvents) {
      EXPECT_EQ(render_diff(other, got, e, top), render_diff(other, want, e, top))
          << ctx << " top " << top;
      EXPECT_EQ(render_diff(got, other, e, top), render_diff(want, other, e, top))
          << ctx << " top " << top << " (swapped)";
    }
  }
  expect_same_ranked(got, want, ctx);
}

void expect_same_arcs(const std::vector<CallArc>& g, const std::vector<CallArc>& w,
                      const std::string& ctx) {
  ASSERT_EQ(g.size(), w.size()) << ctx;
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(std::tie(g[i].caller_image, g[i].caller_symbol, g[i].callee_image,
                       g[i].callee_symbol, g[i].caller_domain, g[i].callee_domain,
                       g[i].count),
              std::tie(w[i].caller_image, w[i].caller_symbol, w[i].callee_image,
                       w[i].callee_symbol, w[i].caller_domain, w[i].callee_domain,
                       w[i].count))
        << ctx << " arc " << i;
  }
}

// ------------------------------------------------- partitions of a stream

TEST(OrderIndependence, AnyPartitionAnyMergeOrderMatchesSerialBytes) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Xoshiro256 rng(seed);
    const std::vector<Sample> samples = flatten(make_batches(rng, 16, 32));
    const Profile serial = serial_fold<Profile>(samples);
    const CallGraph serial_graph = serial_fold<CallGraph>(samples);
    // A second profile to diff against: the stream's first half.
    const Profile half = serial_fold<Profile>(
        std::vector<Sample>(samples.begin(), samples.begin() + samples.size() / 2));

    for (const std::size_t parts : {1u, 2u, 4u, 8u}) {
      // Any partition: every sample lands in a random part, so no part
      // holds a contiguous run and a row's first sample may be anywhere.
      std::vector<Profile> profiles(parts);
      std::vector<CallGraph> graphs(parts);
      for (const Sample& s : samples) {
        const std::size_t k = rng.below(parts);
        add_to(profiles[k], s);
        add_to(graphs[k], s);
      }
      const std::string ctx = "seed " + std::to_string(seed) + " parts " +
                              std::to_string(parts);
      const Profile merged = reduce_shuffled(std::move(profiles), rng);
      expect_same_profile_bytes(merged, serial, half, ctx);
      for (const SampleDomain d :
           {SampleDomain::kKernel, SampleDomain::kImage, SampleDomain::kJit})
        EXPECT_EQ(merged.domain_total(d, kTime), serial.domain_total(d, kTime)) << ctx;

      const CallGraph graph = reduce_shuffled(std::move(graphs), rng);
      for (const std::size_t top : {std::size_t{0}, std::size_t{3}, kAll})
        EXPECT_EQ(graph.render(top), serial_graph.render(top)) << ctx << " top " << top;
      expect_same_arcs(graph.ranked(), serial_graph.ranked(), ctx);
      expect_same_arcs(graph.cross_layer_arcs(), serial_graph.cross_layer_arcs(), ctx);
      EXPECT_EQ(graph.total_samples(), serial_graph.total_samples()) << ctx;
    }
  }
}

// ------------------------------------------- stripes of whole batches
//
// The same invariant in the shape the service folds it: batch partials
// land in stripe `seq % stripes` in shuffled completion order, and the
// stripes merge in a shuffled visit order. A stripe is a plain Profile or
// CallGraph; the suite names are those of the striped accumulators the
// property was first stated for.

/// Batch `seq`'s partial of type Agg.
template <typename Agg>
Agg batch_partial(const std::vector<Sample>& batch) {
  Agg out;
  for (const Sample& s : batch) add_to(out, s);
  return out;
}

/// Folds every batch into stripe `seq % stripes`, applying in a shuffled
/// order, then merges the stripes in a shuffled visit order.
template <typename Agg>
Agg fold_striped(const std::vector<std::vector<Sample>>& batches, std::size_t stripes,
                 support::Xoshiro256& rng) {
  std::vector<std::size_t> order(batches.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Agg> stripe_accs(stripes);
  for (const std::size_t seq : order)
    stripe_accs[seq % stripes].merge(batch_partial<Agg>(batches[seq]));

  std::vector<std::size_t> visit(stripes);
  for (std::size_t i = 0; i < stripes; ++i) visit[i] = i;
  std::shuffle(visit.begin(), visit.end(), rng);
  Agg combined;
  for (const std::size_t k : visit) combined.merge(stripe_accs[k]);
  return combined;
}

TEST(SeqProfileProperty, AnyStripeCountAndApplyOrderMatchesSerialBytes) {
  support::Xoshiro256 rng(0x5eed);
  for (int round = 0; round < 6; ++round) {
    const auto batches = make_batches(rng, 24, 32);
    const Profile serial = serial_fold<Profile>(flatten(batches));
    for (const std::size_t stripes : {1u, 2u, 4u, 8u}) {
      const Profile recovered = fold_striped<Profile>(batches, stripes, rng);
      const std::string ctx =
          "round " + std::to_string(round) + " stripes " + std::to_string(stripes);
      EXPECT_EQ(recovered.render(kEvents, 50), serial.render(kEvents, 50)) << ctx;
      EXPECT_EQ(recovered.row_count(), serial.row_count()) << ctx;
      expect_same_ranked(recovered, serial, ctx);
    }
  }
}

TEST(SeqCallGraphProperty, AnyStripeCountAndApplyOrderMatchesSerial) {
  support::Xoshiro256 rng(0xca11);
  for (int round = 0; round < 6; ++round) {
    const auto batches = make_batches(rng, 18, 20);
    const CallGraph serial = serial_fold<CallGraph>(flatten(batches));
    for (const std::size_t stripes : {1u, 2u, 4u, 8u}) {
      const CallGraph recovered = fold_striped<CallGraph>(batches, stripes, rng);
      const std::string ctx =
          "round " + std::to_string(round) + " stripes " + std::to_string(stripes);
      EXPECT_EQ(recovered.render(40), serial.render(40)) << ctx;
      EXPECT_EQ(recovered.total_samples(), serial.total_samples()) << ctx;
      EXPECT_EQ(recovered.total_arcs(), serial.total_arcs()) << ctx;
      expect_same_arcs(recovered.ranked(), serial.ranked(), ctx);
    }
  }
}

TEST(OrderIndependence, ReversedInsertionOrderRendersTheSameBytes) {
  // The tie rule is on names, never on where a row was first inserted.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Xoshiro256 rng(seed * 17 + 3);
    std::vector<Sample> samples = flatten(make_batches(rng, 8, 24));
    const Profile forward = serial_fold<Profile>(samples);
    const CallGraph forward_graph = serial_fold<CallGraph>(samples);
    std::reverse(samples.begin(), samples.end());
    const Profile backward = serial_fold<Profile>(samples);
    const CallGraph backward_graph = serial_fold<CallGraph>(samples);
    expect_same_profile_bytes(backward, forward, Profile{}, "seed " + std::to_string(seed));
    EXPECT_EQ(backward_graph.render(kAll), forward_graph.render(kAll)) << "seed " << seed;
  }
}

// --------------------------------------------------------- the domain rule

TEST(OrderIndependence, TwoDomainsOnOneRowKeepTheLowest) {
  constexpr int kDomains = static_cast<int>(SampleDomain::kUnknown) + 1;
  for (int a = 0; a < kDomains; ++a) {
    for (int b = 0; b < kDomains; ++b) {
      const auto da = static_cast<SampleDomain>(a);
      const auto db = static_cast<SampleDomain>(b);
      const SampleDomain want = std::min(da, db);
      Resolution ra = make_res(5, da, true);
      Resolution rb = make_res(5, db, true);
      const std::string ctx = std::to_string(a) + "," + std::to_string(b);

      // Serial adds in both orders.
      for (const bool a_first : {true, false}) {
        Profile p;
        p.add(kTime, a_first ? ra : rb);
        p.add(kDmiss, a_first ? rb : ra);
        EXPECT_EQ(p.find(ra.image, ra.symbol)->domain, want) << ctx;
      }

      // Merges in both orders, into empty and non-empty targets.
      Profile pa, pb;
      pa.add(kTime, ra);
      pb.add(kTime, rb);
      for (const bool a_first : {true, false}) {
        Profile into_empty;
        into_empty.merge(a_first ? pa : pb);
        into_empty.merge(a_first ? pb : pa);
        EXPECT_EQ(into_empty.rows().front().domain, want) << ctx;
        Profile by_move = a_first ? pa : pb;
        Profile donor = a_first ? pb : pa;
        by_move.merge(std::move(donor));
        EXPECT_EQ(by_move.rows().front().domain, want) << ctx;
      }

      // Arc endpoints: caller and callee each keep their lowest domain.
      Resolution callee_a = make_res(9, db, true);
      Resolution callee_b = make_res(9, da, true);
      CallGraph ga, gb;
      ga.add_resolved(ra, callee_a);
      gb.add_resolved(rb, callee_b);
      for (const bool a_first : {true, false}) {
        CallGraph g;
        g.merge(a_first ? ga : gb);
        g.merge(a_first ? gb : ga);
        ASSERT_EQ(g.arcs().size(), 1u);
        EXPECT_EQ(g.arcs().front().caller_domain, want) << ctx;
        EXPECT_EQ(g.arcs().front().callee_domain, want) << ctx;
        EXPECT_EQ(g.arcs().front().crosses_layers(), false) << ctx;
      }
    }
  }
}

// ------------------------------------------------------- the intern order

/// Every occurrence of `from` in `text` replaced by `to`.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

TEST(OrderIndependence, ReverseInterningOrderGivesTheSameBytes) {
  // Two fresh name sets that differ only in a prefix of one length. One is
  // interned in ascending text order, the other in descending, so their ids
  // run opposite ways against the text. Fed the same stream, the two must
  // render the same bytes once the prefix is swapped back.
  constexpr int kImages = 3, kSymbols = 60;
  const auto image_text = [](const char* prefix, int i) {
    return std::string(prefix) + "lib" + std::to_string(i) + ".so";
  };
  const auto symbol_text = [](const char* prefix, int i) {
    return std::string(prefix) + "Klass.m" + std::to_string(i);
  };
  const char* kUp = "ordup.";
  const char* kDown = "orddn.";
  for (int i = 0; i < kImages; ++i) support::Name(image_text(kUp, i));
  for (int i = 0; i < kSymbols; ++i) support::Name(symbol_text(kUp, i));
  for (int i = kSymbols - 1; i >= 0; --i) support::Name(symbol_text(kDown, i));
  for (int i = kImages - 1; i >= 0; --i) support::Name(image_text(kDown, i));
  ASSERT_LT(support::Name(symbol_text(kUp, 0)).id(),
            support::Name(symbol_text(kUp, 1)).id());
  ASSERT_GT(support::Name(symbol_text(kDown, 0)).id(),
            support::Name(symbol_text(kDown, 1)).id());

  struct Built {
    Profile before, after;
    CallGraph graph;
    std::string segment;
  };
  const auto build = [&](const char* prefix) {
    support::Xoshiro256 rng(0x1d0);
    const auto res = [&](SampleDomain domain) {
      Resolution r;
      r.image = image_text(prefix, static_cast<int>(rng.below(kImages)));
      r.symbol = symbol_text(prefix, static_cast<int>(rng.below(kSymbols)));
      r.domain = domain;
      return r;
    };
    Built b;
    for (int i = 0; i < 600; ++i) {
      // Counts 1-2 over a small pool: most rows and arcs tie on count.
      const Resolution callee = res(SampleDomain::kJit);
      (i % 2 == 0 ? b.before : b.after).add(rng.below(3) ? kTime : kDmiss, callee,
                                            1 + rng.below(2));
      b.graph.add_resolved(res(SampleDomain::kImage), callee, 1 + rng.below(2));
    }
    store::IntervalProfile iv;
    iv.session = "interning";
    iv.profile = b.after;
    store::SegmentWriter writer(1);
    b.segment = writer.header();
    b.segment += writer.encode_interval(iv);
    b.segment += writer.encode_seal(1);
    return b;
  };
  const Built up = build(kUp);
  const Built down = build(kDown);
  const auto same = [&](const std::string& a, const std::string& b, const char* what) {
    EXPECT_EQ(replace_all(a, kUp, kDown), b) << what;
  };
  for (const std::size_t top : {std::size_t{5}, std::size_t{40}, kAll}) {
    same(up.after.render(kEvents, top), down.after.render(kEvents, top), "render");
    same(render_diff(up.before, up.after, kTime, top),
         render_diff(down.before, down.after, kTime, top), "render_diff");
    same(up.graph.render(top), down.graph.render(top), "CallGraph::render");
  }
  // Segment lines carry a crc over their text, so the prefix swap is
  // compared on the verified line bodies.
  const auto bodies = [](const std::string& segment) {
    std::string out;
    support::LineCursor cursor(segment);
    std::string_view line, body;
    while (cursor.next(line)) {
      EXPECT_TRUE(support::unframe_line(line, store::segment_frame_hash(1), body)) << line;
      out.append(body).push_back('\n');
    }
    return out;
  };
  same(bodies(up.segment), bodies(down.segment), "segment");
}

}  // namespace
}  // namespace viprof::core

// ------------------------------------------------------ the service stripes

namespace viprof::service {
namespace {

using core::Profile;
using core::Sample;

/// One batch as a worker hands it to apply(): partials built as
/// ProfileServer builds them.
BatchResult batch_result(const std::vector<Sample>& batch) {
  BatchResult r;
  for (const Sample& s : batch) {
    r.partial.add(s.event, s.res, s.count);
    r.epoch_partial[s.epoch].add(s.event, s.res, s.count);
    if (s.has_caller) r.arcs.add_resolved(s.caller, s.res, s.count);
  }
  r.records = batch.size();
  return r;
}

struct Serial {
  Profile profile;
  std::map<std::uint64_t, Profile> epochs;
  core::CallGraph graph;
  std::uint64_t records = 0;
};

Serial serial_of(const std::vector<std::vector<Sample>>& batches) {
  Serial out;
  for (const auto& batch : batches) {
    for (const Sample& s : batch) {
      out.profile.add(s.event, s.res, s.count);
      out.epochs[s.epoch].add(s.event, s.res, s.count);
      if (s.has_caller) out.graph.add_resolved(s.caller, s.res, s.count);
    }
    out.records += batch.size();
  }
  return out;
}

Profile since(const Serial& serial, std::uint64_t epoch) {
  Profile out;
  for (auto it = serial.epochs.lower_bound(epoch); it != serial.epochs.end(); ++it)
    out.merge(it->second);
  return out;
}

/// Every query answer of `session` against the serial fold.
void expect_session_matches(const ServerSession& session, const Serial& serial,
                            const std::string& ctx) {
  core::expect_same_profile_bytes(session.merged_profile(), serial.profile, Profile{}, ctx);
  core::expect_same_profile_bytes(session.profile_since_epoch(0), serial.profile, Profile{},
                                  ctx + " since 0");
  EXPECT_EQ(session.profile_since_epoch(3).render(core::kEvents, core::kAll),
            since(serial, 3).render(core::kEvents, core::kAll))
      << ctx << " since 3";
  const auto epochs = session.epoch_profiles();
  ASSERT_EQ(epochs.size(), serial.epochs.size()) << ctx;
  for (const auto& [epoch, profile] : serial.epochs)
    EXPECT_EQ(epochs.at(epoch).render(core::kEvents, core::kAll),
              profile.render(core::kEvents, core::kAll))
        << ctx << " epoch " << epoch;
  core::expect_same_arcs(session.ranked_arcs(), serial.graph.ranked(), ctx);
  EXPECT_EQ(session.ingested_records(), serial.records) << ctx;
}

TEST(OrderIndependence, SessionAnyStripeCountApplyOrderAndFlushCutsMatchSerial) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    support::Xoshiro256 rng(seed * 101);
    const auto batches = core::make_batches(rng, 24, 24);
    const Serial serial = serial_of(batches);

    for (const std::size_t stripes : {1u, 2u, 4u, 8u}) {
      const std::string ctx =
          "seed " + std::to_string(seed) + " stripes " + std::to_string(stripes);
      ServerSession session("s", 64, stripes);
      std::vector<std::size_t> order(batches.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);

      // Flush at random cut points between applies, as the flusher races
      // the workers; every batch must land in exactly one delta.
      std::vector<Profile> deltas;
      std::uint64_t flushed_records = 0;
      const auto flush = [&] {
        ServerSession::FlushDelta d = session.take_flush();
        flushed_records += d.records;
        if (d.any) deltas.push_back(std::move(d.profile));
      };
      for (const std::size_t seq : order) {
        session.apply(seq, batch_result(batches[seq]));
        if (rng.below(5) == 0) flush();
      }
      flush();

      expect_session_matches(session, serial, ctx);
      EXPECT_EQ(flushed_records, serial.records) << ctx;
      core::expect_same_profile_bytes(core::reduce_shuffled(std::move(deltas), rng),
                                      serial.profile, Profile{}, ctx + " flushes");
    }
  }
}

TEST(OrderIndependence, SnapshotBytesDoNotDependOnApplyOrder) {
  // ProfileServer::snapshot() serialises each session's merged and
  // per-epoch profiles; the rows must come out in (image, symbol) order,
  // not in the order the workers happened to apply batches.
  support::Xoshiro256 rng(31);
  const auto batches = core::make_batches(rng, 24, 24);
  const auto snapshot_bytes = [&](const std::vector<std::size_t>& order,
                                  std::size_t stripes) {
    ServerSession session("s", 64, stripes);
    for (const std::size_t seq : order) session.apply(seq, batch_result(batches[seq]));
    ServiceSnapshot snap;
    SessionSnapshot& out = snap.sessions.emplace_back();
    out.id = session.id();
    out.profile = session.merged_profile();
    out.epochs = session.epoch_profiles();
    return snap.serialize();
  };
  std::vector<std::size_t> order(batches.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::string forward = snapshot_bytes(order, 1);
  ASSERT_TRUE(ServiceSnapshot::parse(forward).has_value());
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(snapshot_bytes(order, 1), forward) << "reversed";
  for (const std::size_t stripes : {2u, 4u}) {
    std::shuffle(order.begin(), order.end(), rng);
    EXPECT_EQ(snapshot_bytes(order, stripes), forward) << "stripes " << stripes;
  }
}

TEST(OrderIndependence, ConcurrentApplyMatchesSerial) {
  support::Xoshiro256 rng(77);
  const auto batches = core::make_batches(rng, 64, 16);
  const Serial serial = serial_of(batches);
  std::vector<BatchResult> results;
  for (const auto& batch : batches) results.push_back(batch_result(batch));

  for (const std::size_t stripes : {1u, 2u, 4u, 8u}) {
    ServerSession session("s", 64, stripes);
    constexpr std::size_t kWorkers = 4;
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        // Each worker applies every kWorkers-th batch, newest first.
        for (std::size_t i = results.size(); i-- > 0;)
          if (i % kWorkers == w) session.apply(i, results[i]);
      });
    }
    // A reader racing the workers: the answers are partial, never torn.
    std::thread reader([&] {
      for (int i = 0; i < 20; ++i) {
        const Profile partial = session.merged_profile();
        EXPECT_LE(partial.total(core::kTime), serial.profile.total(core::kTime));
      }
    });
    for (std::thread& t : workers) t.join();
    reader.join();
    expect_session_matches(session, serial, "stripes " + std::to_string(stripes));
  }
}

}  // namespace
}  // namespace viprof::service

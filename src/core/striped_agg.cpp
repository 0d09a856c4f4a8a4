#include "core/striped_agg.hpp"

#include <algorithm>

namespace viprof::core {

namespace {

bool before(std::uint64_t seq_a, std::uint32_t idx_a, std::uint64_t seq_b,
            std::uint32_t idx_b) {
  return seq_a != seq_b ? seq_a < seq_b : idx_a < idx_b;
}

/// Positions of `items` in (seq, idx) order — the serial insertion order.
template <typename Item>
std::vector<std::uint32_t> serial_order(const std::vector<Item>& items) {
  std::vector<std::uint32_t> order(items.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return before(items[a].seq, items[a].idx, items[b].seq, items[b].idx);
  });
  return order;
}

}  // namespace

// ------------------------------------------------------------- SeqProfile

void SeqProfile::fold_row(const ProfileRow& src, std::uint64_t hash, std::uint64_t seq,
                          std::uint32_t idx) {
  const auto [id, inserted] = index_.intern(hash, [&](std::uint32_t i) {
    return rows_[i].row.image == src.image && rows_[i].row.symbol == src.symbol;
  });
  if (inserted) {
    rows_.push_back(SeqRow{src, seq, idx});
    return;
  }
  SeqRow& dst = rows_[id];
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e) dst.row.counts[e] += src.counts[e];
  if (before(seq, idx, dst.seq, dst.idx)) {
    // The incoming occurrence is serially earlier: it defines the row's
    // position *and* its domain (first add wins in the serial path).
    dst.seq = seq;
    dst.idx = idx;
    dst.row.domain = src.domain;
  }
}

void SeqProfile::fold(std::uint64_t seq, const Profile& partial) {
  const std::vector<ProfileRow>& rows = partial.rows();
  for (std::uint32_t i = 0; i < rows.size(); ++i)
    fold_row(rows[i], partial.row_hash_of(i), seq, i);
}

void SeqProfile::fold(const SeqProfile& other) {
  for (std::uint32_t i = 0; i < other.rows_.size(); ++i) {
    const SeqRow& src = other.rows_[i];
    fold_row(src.row, other.index_.hash(i), src.seq, src.idx);
  }
}

Profile SeqProfile::ordered() const {
  Profile out;
  for (const std::uint32_t i : serial_order(rows_))
    out.add_row(rows_[i].row, index_.hash(i));
  return out;
}

// ----------------------------------------------------------- SeqCallGraph

void SeqCallGraph::fold_arc(const CallArc& src, std::uint64_t hash, std::uint64_t seq,
                            std::uint32_t idx) {
  const auto [id, inserted] = index_.intern(hash, [&](std::uint32_t i) {
    const CallArc& a = arcs_[i].arc;
    return a.caller_symbol == src.caller_symbol && a.callee_symbol == src.callee_symbol &&
           a.caller_image == src.caller_image && a.callee_image == src.callee_image;
  });
  if (inserted) {
    arcs_.push_back(SeqArc{src, seq, idx});
    return;
  }
  SeqArc& dst = arcs_[id];
  dst.arc.count += src.count;
  if (before(seq, idx, dst.seq, dst.idx)) {
    dst.seq = seq;
    dst.idx = idx;
    dst.arc.caller_domain = src.caller_domain;
    dst.arc.callee_domain = src.callee_domain;
  }
}

void SeqCallGraph::fold(std::uint64_t seq, const CallGraph& partial) {
  const std::vector<CallArc>& arcs = partial.arcs();
  for (std::uint32_t i = 0; i < arcs.size(); ++i)
    fold_arc(arcs[i], partial.arc_hash_of(i), seq, i);
}

void SeqCallGraph::fold(const SeqCallGraph& other) {
  for (std::uint32_t i = 0; i < other.arcs_.size(); ++i) {
    const SeqArc& src = other.arcs_[i];
    fold_arc(src.arc, other.index_.hash(i), src.seq, src.idx);
  }
}

CallGraph SeqCallGraph::ordered() const {
  CallGraph out;
  for (const std::uint32_t i : serial_order(arcs_)) out.add_arc(arcs_[i].arc, index_.hash(i));
  return out;
}

}  // namespace viprof::core

#include "core/callgraph.hpp"

#include <tuple>

#include "support/format.hpp"

namespace viprof::core {

void add_arc_row(support::TextTable& table, const CallArc& arc) {
  table.cell(arc.count)
      .cell(arc.caller_image.view(), ':', arc.caller_symbol.view())
      .cell("->")
      .cell(arc.callee_image.view(), ':', arc.callee_symbol.view())
      .end_row();
}

std::size_t CallGraph::arc_slot(const CallArc& like, std::uint64_t hash) {
  const auto [id, inserted] = index_.intern(hash, [&](std::uint32_t i) {
    const CallArc& a = arcs_[i];
    return a.caller_symbol == like.caller_symbol &&
           a.callee_symbol == like.callee_symbol &&
           a.caller_image == like.caller_image && a.callee_image == like.callee_image;
  });
  if (inserted) {
    CallArc& arc = arcs_.emplace_back(like);
    arc.count = 0;
  } else {
    // The lower domain wins, in any fold order.
    CallArc& arc = arcs_[id];
    if (like.caller_domain < arc.caller_domain) arc.caller_domain = like.caller_domain;
    if (like.callee_domain < arc.callee_domain) arc.callee_domain = like.callee_domain;
  }
  return id;
}

void CallGraph::add(const LoggedSample& sample) {
  if (sample.caller_pc == 0) return;
  const Resolution callee = resolver_->resolve(sample);
  // The caller is user code in the same process (one-level unwind).
  const Resolution caller =
      resolver_->resolve_pc(sample.caller_pc, hw::CpuMode::kUser, sample.pid, sample.epoch);
  add_resolved(caller, callee);
}

void CallGraph::add_resolved(const Resolution& caller, const Resolution& callee,
                             std::uint64_t count) {
  const CallArc like{caller.image, caller.symbol, callee.image, callee.symbol,
                     caller.domain, callee.domain, 0};
  const std::size_t arc = arc_slot(
      like, arc_hash(caller.image, caller.symbol, callee.image, callee.symbol));
  arcs_[arc].count += count;
  samples_ += count;
}

void CallGraph::merge(const CallGraph& other) {
  samples_ += other.samples_;
  for (std::size_t a = 0; a < other.arcs_.size(); ++a) {
    const CallArc& src = other.arcs_[a];
    arcs_[arc_slot(src, other.arc_hash_of(a))].count += src.count;
  }
}

std::vector<std::uint32_t> CallGraph::rank(std::size_t top_n) const {
  const auto names = [&](std::size_t i) {
    const CallArc& a = arcs_[i];
    return std::tie(a.caller_image, a.caller_symbol, a.callee_image, a.callee_symbol);
  };
  return rank_top(
      arcs_.size(), top_n, [&](std::size_t i) { return arcs_[i].count; },
      [&](std::size_t a, std::size_t b) { return names(a) < names(b); });
}

std::vector<CallArc> CallGraph::ranked() const {
  std::vector<CallArc> out;
  out.reserve(arcs_.size());
  for (const std::uint32_t a : rank(arcs_.size())) out.push_back(arcs_[a]);
  return out;
}

std::vector<CallArc> CallGraph::cross_layer_arcs() const {
  std::vector<CallArc> out;
  for (const CallArc& arc : ranked())
    if (arc.crosses_layers()) out.push_back(arc);
  return out;
}

std::string CallGraph::render(std::size_t top_n) const {
  const std::vector<std::uint32_t> ranked = rank(top_n);
  support::TextTable table({"Samples", "Caller", "->", "Callee"}, ranked.size(), 96);
  for (const std::uint32_t a : ranked) add_arc_row(table, arcs_[a]);
  return table.render();
}

}  // namespace viprof::core

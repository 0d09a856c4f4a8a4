#include "core/resolver.hpp"

#include "support/str_scan.hpp"

namespace viprof::core {

std::optional<SampleDomain> domain_from_string(std::string_view name) {
  using D = SampleDomain;
  for (D d : {D::kHypervisor, D::kKernel, D::kImage, D::kBoot, D::kJit, D::kAnon,
              D::kObject, D::kUnknown}) {
    if (name == to_string(d)) return d;
  }
  return std::nullopt;
}

bool scan_domain_counts(std::string_view& s, std::optional<SampleDomain>& domain,
                        std::uint64_t (&counts)[hw::kEventKindCount]) {
  std::string_view name;
  if (!support::scan_token(s, name)) return false;
  for (std::uint64_t& c : counts)
    if (!support::scan_u64(s, c)) return false;
  domain = domain_from_string(name);
  return true;
}

Resolver::Resolver(const os::Machine& machine, const RegistrationTable& table,
                   bool vm_aware)
    : machine_(&machine), table_(&table), vm_aware_(vm_aware) {
  support::Telemetry& tele = machine_->telemetry();
  tele_jit_resolved_ = &tele.counter("resolver.jit.resolved");
  tele_jit_unresolved_ = &tele.counter("resolver.jit.unresolved");
  tele_missing_map_ = &tele.counter("resolver.unresolved.missing_map");
  tele_truncated_map_ = &tele.counter("resolver.unresolved.truncated_map");
  tele_walkback_ = &tele.histogram("resolver.walkback.depth");
}

Resolver::~Resolver() = default;

Resolver::Resolver(Resolver&& other) noexcept
    : machine_(other.machine_),
      table_(other.table_),
      vm_aware_(other.vm_aware_),
      world_(std::move(other.world_)),
      jit_resolved_(other.jit_resolved_.load(std::memory_order_relaxed)),
      jit_unresolved_(other.jit_unresolved_.load(std::memory_order_relaxed)),
      backward_steps_(other.backward_steps_.load(std::memory_order_relaxed)),
      unresolved_missing_map_(
          other.unresolved_missing_map_.load(std::memory_order_relaxed)),
      unresolved_truncated_map_(
          other.unresolved_truncated_map_.load(std::memory_order_relaxed)),
      tele_jit_resolved_(other.tele_jit_resolved_),
      tele_jit_unresolved_(other.tele_jit_unresolved_),
      tele_missing_map_(other.tele_missing_map_),
      tele_truncated_map_(other.tele_truncated_map_),
      tele_walkback_(other.tele_walkback_) {}

void Resolver::load() {
  world_ = std::make_unique<const ArchiveResolver>(*machine_, *table_, vm_aware_);
}

const CodeMapIndex* Resolver::code_maps(hw::Pid pid) const {
  return world_ != nullptr ? world_->code_maps(pid) : nullptr;
}

Resolution Resolver::resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                                std::uint64_t epoch) const {
  ResolveStats stats;
  Resolution out = resolve_pc(pc, mode, pid, epoch, stats);
  fold(stats);
  return out;
}

void Resolver::fold(const ResolveStats& stats) const {
  // Zero tallies are skipped: a one-sample fold touches one or two shared
  // cache lines, not eleven.
  const auto add = [](std::atomic<std::uint64_t>& total, support::Counter* tele,
                      std::uint64_t n) {
    if (n == 0) return;
    total.fetch_add(n, std::memory_order_relaxed);
    if (tele != nullptr) tele->inc(n);
  };
  add(jit_resolved_, tele_jit_resolved_, stats.jit_resolved);
  add(jit_unresolved_, tele_jit_unresolved_, stats.jit_unresolved);
  add(backward_steps_, nullptr, stats.backward_steps);
  add(unresolved_missing_map_, tele_missing_map_, stats.unresolved_missing_map);
  add(unresolved_truncated_map_, tele_truncated_map_, stats.unresolved_truncated_map);
  for (std::size_t d = 0; d < ResolveStats::kDepthSlots; ++d)
    tele_walkback_->add(static_cast<double>(d), stats.hits_at_depth[d]);
}

void Resolver::tally_jit_miss(const Resolution& out, ResolveStats& stats) {
  ++stats.jit_unresolved;
  const ResolveNames& names = ResolveNames::get();
  if (out.symbol == names.missing_map) ++stats.unresolved_missing_map;
  else if (out.symbol == names.truncated_map) ++stats.unresolved_truncated_map;
}

}  // namespace viprof::core

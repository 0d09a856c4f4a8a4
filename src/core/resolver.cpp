#include "core/resolver.hpp"

#include "core/rvm_map.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
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

void Resolver::load() {
  if (!vm_aware_) {
    loaded_ = true;
    return;
  }
  for (const VmRegistration& reg : table_->all()) {
    if (!reg.boot_map_path.empty()) {
      if (const auto contents = machine_->vfs().read(reg.boot_map_path)) {
        boot_maps_[reg.pid] = parse_rvm_map(*contents);
        const auto slash = reg.boot_map_path.rfind('/');
        boot_labels_[reg.pid] = std::string_view(reg.boot_map_path).substr(
            slash == std::string::npos ? 0 : slash + 1);
      }
    }
    CodeMapIndex index;
    index.load(machine_->vfs(), reg.jit_map_dir, reg.pid);
    jit_maps_[reg.pid] = std::move(index);
  }
  loaded_ = true;
}

const CodeMapIndex* Resolver::code_maps(hw::Pid pid) const {
  auto it = jit_maps_.find(pid);
  return it == jit_maps_.end() ? nullptr : &it->second;
}

Resolution Resolver::resolve(const LoggedSample& s) const {
  return resolve_pc(s.pc, s.mode, s.pid, s.epoch);
}

Resolution Resolver::resolve(const LoggedSample& s, ResolveStats& stats) const {
  return resolve_pc(s.pc, s.mode, s.pid, s.epoch, stats);
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

Resolution Resolver::resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                                std::uint64_t epoch, ResolveStats& stats) const {
  VIPROF_CHECK(loaded_);
  const ResolveNames& names = ResolveNames::get();
  Resolution out;
  out.symbol = names.no_symbols;
  // Symbol `sym` of a table whose offset 0 sits at address `base`.
  const auto attribute = [&out](const std::optional<os::Symbol>& sym, hw::Address base) {
    if (!sym) return;
    out.symbol = sym->name;
    out.symbol_base = base + sym->offset;
    out.symbol_size = sym->size;
  };

  const auto& hyp = machine_->hypervisor();
  if (hyp && (mode == hw::CpuMode::kHypervisor || hyp->contains(pc))) {
    out.domain = SampleDomain::kHypervisor;
    const os::Image& ximg = machine_->registry().get(hyp->image);
    out.image = ximg.name();
    attribute(ximg.symbols().find(pc - hyp->base), hyp->base);
    return out;
  }

  if (mode == hw::CpuMode::kKernel || machine_->kernel().contains(pc)) {
    out.domain = SampleDomain::kKernel;
    const os::Image& kimg = machine_->registry().get(machine_->kernel().image());
    out.image = kimg.name();
    attribute(kimg.symbols().find(machine_->kernel().offset_of(pc)),
              machine_->kernel().base());
    return out;
  }

  // Resolver runs offline but reads the same process maps the daemon saw.
  const os::Process* proc = machine_->find_process(pid);
  if (proc == nullptr) {
    out.domain = SampleDomain::kUnknown;
    out.image = "unknown-pid-" + std::to_string(pid);
    return out;
  }

  const auto vma = proc->address_space().find(pc);
  if (!vma) {
    out.domain = SampleDomain::kUnknown;
    out.image = names.unmapped;
    return out;
  }

  const os::Image& img = machine_->registry().get(vma->image);
  const std::uint64_t offset = vma->file_offset + (pc - vma->start);
  const hw::Address image_base = vma->start - vma->file_offset;

  switch (img.kind()) {
    case os::ImageKind::kBootImage: {
      out.domain = SampleDomain::kBoot;
      if (vm_aware_) {
        auto bm = boot_maps_.find(pid);
        if (bm != boot_maps_.end()) {
          out.image = boot_labels_.at(pid);
          attribute(bm->second.find(offset), image_base);
          return out;
        }
      }
      out.image = img.name();  // opaque blob: RVM.code.image / CLR.native.image
      return out;
    }
    case os::ImageKind::kAnon: {
      if (vm_aware_) {
        if (const VmRegistration* reg = table_->find_heap(pid, pc)) {
          out.domain = SampleDomain::kJit;
          out.image = names.jit_image;
          auto jm = jit_maps_.find(reg->pid);
          const CodeMapIndex::Lookup lk =
              jm != jit_maps_.end() ? jm->second.lookup(pc, epoch)
                                    : CodeMapIndex::Lookup{std::nullopt,
                                                           JitLookupMiss::kNoMaps};
          if (lk.hit) {
            out.symbol = lk.hit->symbol;
            out.maps_searched = lk.hit->maps_searched;
            out.symbol_base = lk.hit->address;
            out.symbol_size = lk.hit->size;
            stats.backward_steps += lk.hit->maps_searched;
            ++stats.jit_resolved;
            if (lk.hit->maps_searched < ResolveStats::kDepthSlots)
              ++stats.hits_at_depth[lk.hit->maps_searched];
            else
              tele_walkback_->add(static_cast<double>(lk.hit->maps_searched));
            return out;
          }
          ++stats.jit_unresolved;
          switch (lk.miss) {
            case JitLookupMiss::kMissingEpochMap:
              ++stats.unresolved_missing_map;
              out.symbol = names.missing_map;
              break;
            case JitLookupMiss::kTruncatedMap:
              ++stats.unresolved_truncated_map;
              out.symbol = names.truncated_map;
              break;
            default:
              out.symbol = names.unknown_jit;
              break;
          }
          return out;
        }
      }
      out.domain = SampleDomain::kAnon;
      out.image = "anon (range:" + support::hex(vma->start) + "-" +
                  support::hex(vma->end) + ")," + proc->name();
      return out;
    }
    default: {
      out.domain = SampleDomain::kImage;
      out.image = img.name();
      if (!img.stripped()) attribute(img.symbols().find(offset), image_base);
      return out;
    }
  }
}

}  // namespace viprof::core

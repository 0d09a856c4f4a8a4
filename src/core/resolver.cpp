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

namespace {

constexpr const char* kNoSymbols = "(no symbols)";

}  // namespace

Resolver::Resolver(const os::Machine& machine, const RegistrationTable& table,
                   bool vm_aware)
    : machine_(&machine), table_(&table), vm_aware_(vm_aware) {
  support::Telemetry& tele = machine_->telemetry();
  tele_jit_resolved_ = &tele.counter("resolver.jit.resolved");
  tele_jit_unresolved_ = &tele.counter("resolver.jit.unresolved");
  tele_missing_map_ = &tele.counter("resolver.unresolved.missing_map");
  tele_truncated_map_ = &tele.counter("resolver.unresolved.truncated_map");
  tele_walkback_ = &tele.histogram("resolver.walkback.depth", 0, 1, 32);
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
        boot_labels_[reg.pid] =
            slash == std::string::npos ? reg.boot_map_path
                                       : reg.boot_map_path.substr(slash + 1);
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
  jit_resolved_.fetch_add(stats.jit_resolved, std::memory_order_relaxed);
  jit_unresolved_.fetch_add(stats.jit_unresolved, std::memory_order_relaxed);
  backward_steps_.fetch_add(stats.backward_steps, std::memory_order_relaxed);
  unresolved_missing_map_.fetch_add(stats.unresolved_missing_map,
                                    std::memory_order_relaxed);
  unresolved_truncated_map_.fetch_add(stats.unresolved_truncated_map,
                                      std::memory_order_relaxed);
}

Resolution Resolver::resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                                std::uint64_t epoch, ResolveStats& stats) const {
  VIPROF_CHECK(loaded_);
  Resolution out;

  const auto& hyp = machine_->hypervisor();
  if (hyp && (mode == hw::CpuMode::kHypervisor || hyp->contains(pc))) {
    out.domain = SampleDomain::kHypervisor;
    const os::Image& ximg = machine_->registry().get(hyp->image);
    out.image = ximg.name();
    const auto sym = ximg.symbols().find(pc - hyp->base);
    out.symbol = sym ? sym->name : kNoSymbols;
    if (sym) {
      out.symbol_base = hyp->base + sym->offset;
      out.symbol_size = sym->size;
    }
    return out;
  }

  if (mode == hw::CpuMode::kKernel || machine_->kernel().contains(pc)) {
    out.domain = SampleDomain::kKernel;
    const os::Image& kimg = machine_->registry().get(machine_->kernel().image());
    out.image = kimg.name();
    const auto sym = kimg.symbols().find(machine_->kernel().offset_of(pc));
    out.symbol = sym ? sym->name : kNoSymbols;
    if (sym) {
      out.symbol_base = machine_->kernel().base() + sym->offset;
      out.symbol_size = sym->size;
    }
    return out;
  }

  // Resolver runs offline but reads the same process maps the daemon saw.
  const os::Process* proc = machine_->find_process(pid);
  if (proc == nullptr) {
    out.domain = SampleDomain::kUnknown;
    out.image = "unknown-pid-" + std::to_string(pid);
    out.symbol = kNoSymbols;
    return out;
  }

  const auto vma = proc->address_space().find(pc);
  if (!vma) {
    out.domain = SampleDomain::kUnknown;
    out.image = "unmapped";
    out.symbol = kNoSymbols;
    return out;
  }

  const os::Image& img = machine_->registry().get(vma->image);
  const std::uint64_t offset = vma->file_offset + (pc - vma->start);

  switch (img.kind()) {
    case os::ImageKind::kBootImage: {
      if (vm_aware_) {
        auto bm = boot_maps_.find(pid);
        if (bm != boot_maps_.end()) {
          out.domain = SampleDomain::kBoot;
          out.image = boot_labels_.at(pid);
          const auto sym = bm->second.find(offset);
          out.symbol = sym ? sym->name : kNoSymbols;
          if (sym) {
            out.symbol_base = vma->start - vma->file_offset + sym->offset;
            out.symbol_size = sym->size;
          }
          return out;
        }
      }
      out.domain = SampleDomain::kBoot;
      out.image = img.name();  // opaque blob: RVM.code.image / CLR.native.image
      out.symbol = kNoSymbols;
      return out;
    }
    case os::ImageKind::kAnon: {
      if (vm_aware_) {
        if (const VmRegistration* reg = table_->find_heap(pid, pc)) {
          out.domain = SampleDomain::kJit;
          out.image = "JIT.App";
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
            tele_jit_resolved_->inc();
            tele_walkback_->add(static_cast<double>(lk.hit->maps_searched));
            return out;
          }
          ++stats.jit_unresolved;
          tele_jit_unresolved_->inc();
          switch (lk.miss) {
            case JitLookupMiss::kMissingEpochMap:
              ++stats.unresolved_missing_map;
              tele_missing_map_->inc();
              out.symbol = kUnresolvedMissingMap;
              break;
            case JitLookupMiss::kTruncatedMap:
              ++stats.unresolved_truncated_map;
              tele_truncated_map_->inc();
              out.symbol = kUnresolvedTruncatedMap;
              break;
            default:
              out.symbol = kUnknownJit;
              break;
          }
          return out;
        }
      }
      out.domain = SampleDomain::kAnon;
      out.image = "anon (range:" + support::hex(vma->start) + "-" +
                  support::hex(vma->end) + ")," + proc->name();
      out.symbol = kNoSymbols;
      return out;
    }
    default: {
      out.domain = SampleDomain::kImage;
      out.image = img.name();
      if (img.stripped()) {
        out.symbol = kNoSymbols;
        return out;
      }
      const auto sym = img.symbols().find(offset);
      out.symbol = sym ? sym->name : kNoSymbols;
      if (sym) {
        out.symbol_base = vma->start - vma->file_offset + sym->offset;
        out.symbol_size = sym->size;
      }
      return out;
    }
  }
}

}  // namespace viprof::core

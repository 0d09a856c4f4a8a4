#include "core/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/rvm_map.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
#include "support/str_scan.hpp"

namespace viprof::core {

namespace {

std::string manifest_path(const std::string& prefix) { return prefix + "/manifest"; }

const char* kind_code(os::ImageKind kind) {
  switch (kind) {
    case os::ImageKind::kExecutable: return "exec";
    case os::ImageKind::kSharedLib:  return "lib";
    case os::ImageKind::kKernel:     return "kernel";
    case os::ImageKind::kBootImage:  return "boot";
    case os::ImageKind::kAnon:       return "anon";
  }
  return "?";
}

os::ImageKind kind_from(const std::string& code) {
  if (code == "exec") return os::ImageKind::kExecutable;
  if (code == "lib") return os::ImageKind::kSharedLib;
  if (code == "kernel") return os::ImageKind::kKernel;
  if (code == "boot") return os::ImageKind::kBootImage;
  return os::ImageKind::kAnon;
}

}  // namespace

void write_archive(const os::Machine& machine, const RegistrationTable& table,
                   os::Vfs& vfs, const std::string& prefix) {
  std::string out;
  const os::ImageRegistry& registry = machine.registry();
  for (std::uint32_t id = 0; id < registry.count(); ++id) {
    const os::Image& img = registry.get(id);
    out += "image " + std::to_string(id) + " " + kind_code(img.kind()) + " " +
           (img.stripped() ? "1" : "0") + " ";
    out += img.name().view();
    out += '\n';
    for (const os::Symbol& s : img.symbols().ordered()) {
      out += "sym " + std::to_string(id) + " " + support::hex(s.offset) + " " +
             std::to_string(s.size) + " ";
      out += s.name.view();
      out += '\n';
    }
  }
  for (const auto& proc : machine.processes()) {
    out += "proc " + std::to_string(proc->pid()) + " " + proc->name() + "\n";
    for (const os::Vma& vma : proc->address_space().vmas()) {
      out += "vma " + std::to_string(proc->pid()) + " " + support::hex(vma.start) +
             " " + support::hex(vma.end) + " " + std::to_string(vma.image) + " " +
             std::to_string(vma.file_offset) + "\n";
    }
  }
  out += "kernel " + std::to_string(machine.kernel().image()) + " " +
         support::hex(machine.kernel().base()) + " " +
         std::to_string(machine.kernel().size()) + "\n";
  if (machine.hypervisor()) {
    out += "hyp " + std::to_string(machine.hypervisor()->image) + " " +
           support::hex(machine.hypervisor()->base) + " " +
           std::to_string(machine.hypervisor()->size) + "\n";
  }
  for (const VmRegistration& reg : table.all()) {
    out += "reg " + std::to_string(reg.pid) + " " + support::hex(reg.heap_lo) + " " +
           support::hex(reg.heap_hi) + " " + support::hex(reg.boot_base) + " " +
           std::to_string(reg.boot_size) + " " +
           (reg.boot_map_path.empty() ? "-" : reg.boot_map_path) + " " +
           (reg.jit_map_dir.empty() ? "-" : reg.jit_map_dir) + " " +
           (reg.obj_map_dir.empty() ? "-" : reg.obj_map_dir) + "\n";
  }
  vfs.write(manifest_path(prefix), std::move(out));
}

std::optional<VmRegistration> parse_reg_line(std::string_view line) {
  std::string_view tag, map_path, jit_dir, obj_dir;
  std::uint64_t pid = 0;
  VmRegistration reg;
  if (!support::scan_token(line, tag) || tag != "reg" || !support::scan_u64(line, pid) ||
      pid > 0xffffffffu || !support::scan_hex64(line, reg.heap_lo) ||
      !support::scan_hex64(line, reg.heap_hi) ||
      !support::scan_hex64(line, reg.boot_base) ||
      !support::scan_u64(line, reg.boot_size) || !support::scan_token(line, map_path) ||
      !support::scan_token(line, jit_dir))
    return std::nullopt;
  support::scan_token(line, obj_dir);
  const auto dir = [](std::string_view d) { return d == "-" ? "" : std::string(d); };
  reg.pid = static_cast<hw::Pid>(pid);
  reg.boot_map_path = dir(map_path);
  reg.jit_map_dir = dir(jit_dir);
  reg.obj_map_dir = dir(obj_dir);
  return reg;
}

ArchiveResolver::ArchiveResolver(const os::Vfs& vfs, const std::string& prefix,
                                 bool vm_aware, bool load_jit_maps)
    : vm_aware_(vm_aware) {
  const auto manifest = vfs.read(manifest_path(prefix));
  VIPROF_CHECK(manifest.has_value());
  std::istringstream in(*manifest);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "image") {
      std::uint32_t id;
      std::string kind;
      int stripped;
      ls >> id >> kind >> stripped;
      std::string name;
      std::getline(ls, name);
      if (!name.empty() && name[0] == ' ') name.erase(0, 1);
      if (images_.size() <= id) images_.resize(id + 1);
      images_[id].name = name;
      images_[id].kind = kind_from(kind);
      images_[id].stripped = stripped != 0;
    } else if (tag == "sym") {
      std::uint32_t id;
      std::string offset_hex;
      std::uint64_t size;
      ls >> id >> offset_hex >> size;
      std::string name;
      std::getline(ls, name);
      if (!name.empty() && name[0] == ' ') name.erase(0, 1);
      VIPROF_CHECK(id < images_.size());
      images_[id].symbols.add(name, std::stoull(offset_hex, nullptr, 16), size);
    } else if (tag == "proc") {
      hw::Pid pid;
      ls >> pid;
      std::string name;
      std::getline(ls, name);
      if (!name.empty() && name[0] == ' ') name.erase(0, 1);
      processes_[pid].name = name;
    } else if (tag == "vma") {
      hw::Pid pid;
      std::string start_hex, end_hex;
      std::uint32_t image;
      std::uint64_t file_offset;
      ls >> pid >> start_hex >> end_hex >> image >> file_offset;
      processes_[pid].vmas.push_back({std::stoull(start_hex, nullptr, 16),
                                      std::stoull(end_hex, nullptr, 16), image,
                                      file_offset, support::Name()});
    } else if (tag == "kernel" || tag == "hyp") {
      std::uint32_t image;
      std::string base_hex;
      std::uint64_t size;
      ls >> image >> base_hex >> size;
      const Range range{image, std::stoull(base_hex, nullptr, 16), size};
      (tag == "kernel" ? kernel_ : hypervisor_) = range;
    } else if (const auto reg = parse_reg_line(line)) {
      registrations_.push_back(*reg);
    }
  }
  for (auto& [pid, proc] : processes_) {
    std::sort(proc.vmas.begin(), proc.vmas.end(),
              [](const ArchivedVma& a, const ArchivedVma& b) { return a.start < b.start; });
    for (ArchivedVma& vma : proc.vmas) {
      if (vma.image < images_.size() && images_[vma.image].kind == os::ImageKind::kAnon)
        vma.anon_label = "anon (range:" + support::hex(vma.start) + "-" +
                         support::hex(vma.end) + ")," + proc.name;
    }
  }
  if (vm_aware_) {
    for (const VmRegistration& reg : registrations_) {
      if (!reg.boot_map_path.empty()) {
        if (const auto contents = vfs.read(reg.boot_map_path)) {
          boot_maps_[reg.pid] = parse_rvm_map(*contents);
          const auto slash = reg.boot_map_path.rfind('/');
          boot_labels_[reg.pid] = std::string_view(reg.boot_map_path).substr(
              slash == std::string::npos ? 0 : slash + 1);
        }
      }
      if (load_jit_maps && !reg.jit_map_dir.empty()) {
        CodeMapIndex index;
        index.load(vfs, reg.jit_map_dir, reg.pid);
        jit_maps_[reg.pid] = std::move(index);
      }
    }
  }
  loaded_ = true;
}

const ArchiveResolver::ArchivedVma* ArchiveResolver::find_vma(
    const ArchivedProcess& proc, hw::Address pc) const {
  auto it = std::upper_bound(
      proc.vmas.begin(), proc.vmas.end(), pc,
      [](hw::Address a, const ArchivedVma& v) { return a < v.start; });
  if (it == proc.vmas.begin()) return nullptr;
  --it;
  return (pc >= it->start && pc < it->end) ? &*it : nullptr;
}

Resolution ArchiveResolver::resolve(const LoggedSample& s) const {
  return resolve_pc(s.pc, s.mode, s.pid, s.epoch, nullptr);
}

Resolution ArchiveResolver::resolve(const LoggedSample& s,
                                    const JitIndexSource* jit) const {
  return resolve_pc(s.pc, s.mode, s.pid, s.epoch, jit);
}

Resolution ArchiveResolver::resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                                       std::uint64_t epoch) const {
  return resolve_pc(pc, mode, pid, epoch, nullptr);
}

Resolution ArchiveResolver::resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                                       std::uint64_t epoch,
                                       const JitIndexSource* jit) const {
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

  if (hypervisor_ && (mode == hw::CpuMode::kHypervisor || hypervisor_->contains(pc))) {
    out.domain = SampleDomain::kHypervisor;
    const ArchivedImage& img = images_.at(hypervisor_->image);
    out.image = img.name;
    attribute(img.symbols.find(pc - hypervisor_->base), hypervisor_->base);
    return out;
  }
  if (kernel_ && (mode == hw::CpuMode::kKernel || kernel_->contains(pc))) {
    out.domain = SampleDomain::kKernel;
    const ArchivedImage& img = images_.at(kernel_->image);
    out.image = img.name;
    attribute(img.symbols.find(pc - kernel_->base), kernel_->base);
    return out;
  }

  auto proc_it = processes_.find(pid);
  if (proc_it == processes_.end()) {
    out.domain = SampleDomain::kUnknown;
    out.image = "unknown-pid-" + std::to_string(pid);
    return out;
  }
  const ArchivedVma* vma = find_vma(proc_it->second, pc);
  if (vma == nullptr) {
    out.domain = SampleDomain::kUnknown;
    out.image = names.unmapped;
    return out;
  }

  const ArchivedImage& img = images_.at(vma->image);
  const std::uint64_t offset = vma->file_offset + (pc - vma->start);
  const hw::Address image_base = vma->start - vma->file_offset;

  switch (img.kind) {
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
      out.image = img.name;  // opaque blob: RVM.code.image / CLR.native.image
      return out;
    }
    case os::ImageKind::kAnon: {
      if (vm_aware_) {
        for (const VmRegistration& reg : registrations_) {
          if (reg.pid != pid || !reg.heap_contains(pc)) continue;
          out.domain = SampleDomain::kJit;
          out.image = names.jit_image;
          const CodeMapIndex* index = nullptr;
          if (jit != nullptr) {
            index = jit->index_for(pid, epoch);
          } else {
            auto jm = jit_maps_.find(pid);
            if (jm != jit_maps_.end()) index = &jm->second;
          }
          const CodeMapIndex::Lookup lk =
              index != nullptr ? index->lookup(pc, epoch)
                               : CodeMapIndex::Lookup{std::nullopt,
                                                      JitLookupMiss::kNoMaps};
          if (lk.hit) {
            out.symbol = lk.hit->symbol;
            out.maps_searched = lk.hit->maps_searched;
            out.symbol_base = lk.hit->address;
            out.symbol_size = lk.hit->size;
            return out;
          }
          switch (lk.miss) {
            case JitLookupMiss::kMissingEpochMap:
              out.symbol = names.missing_map;
              break;
            case JitLookupMiss::kTruncatedMap:
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
      out.image = vma->anon_label;
      return out;
    }
    default: {
      out.domain = SampleDomain::kImage;
      out.image = img.name;
      if (!img.stripped) attribute(img.symbols.find(offset), image_base);
      return out;
    }
  }
}

}  // namespace viprof::core

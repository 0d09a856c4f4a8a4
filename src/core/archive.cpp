#include "core/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

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

std::optional<os::ImageKind> kind_from(std::string_view code) {
  if (code == "exec") return os::ImageKind::kExecutable;
  if (code == "lib") return os::ImageKind::kSharedLib;
  if (code == "kernel") return os::ImageKind::kKernel;
  if (code == "boot") return os::ImageKind::kBootImage;
  if (code == "anon") return os::ImageKind::kAnon;
  return std::nullopt;
}

/// Image ids are dense from 0 (write_archive numbers the registry); a
/// damaged id past this bound must not size the image table.
constexpr std::uint64_t kMaxImageId = 1u << 16;

/// The fields of a manifest line after its tag, scanned by `format`: d a
/// decimal and h a hex number (into num, in order), t a token and ? an
/// optional one, * the free-text rest after one space (into text, in
/// order). A number must end at whitespace ("5x" is junk), and nothing may
/// follow the last field unless the format ends in *.
bool scan_fields(std::string_view line, std::string_view format, std::uint64_t* num,
                 std::string_view* text) {
  for (const char f : format) {
    if (f == '*') {
      *text = line.empty() ? line : line.substr(1);
      return true;
    }
    if (f == '?') {
      support::scan_token(line, *text++);
      continue;
    }
    const bool ok = f == 't'   ? support::scan_token(line, *text++)
                    : f == 'h' ? support::scan_hex64(line, *num++)
                               : support::scan_u64(line, *num++);
    if (!ok || (f != 't' && !line.empty() && !support::is_space(line.front()))) return false;
  }
  return support::at_end(line);
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
  std::string_view tag, dirs[3];
  std::uint64_t n[5] = {};
  if (!support::scan_token(line, tag) || tag != "reg" ||
      !scan_fields(line, "dhhhdtt?", n, dirs) || n[0] > 0xffffffffu)
    return std::nullopt;
  const auto dir = [](std::string_view d) { return d == "-" ? "" : std::string(d); };
  VmRegistration reg;
  reg.pid = static_cast<hw::Pid>(n[0]);
  reg.heap_lo = n[1];
  reg.heap_hi = n[2];
  reg.boot_base = n[3];
  reg.boot_size = n[4];
  reg.boot_map_path = dir(dirs[0]);
  reg.jit_map_dir = dir(dirs[1]);
  reg.obj_map_dir = dir(dirs[2]);
  return reg;
}

ArchiveResolver::ArchiveResolver(const os::Vfs& vfs, const std::string& prefix,
                                 bool vm_aware, bool load_jit_maps)
    : vm_aware_(vm_aware) {
  const auto manifest = vfs.read(manifest_path(prefix));
  VIPROF_CHECK(manifest.has_value());
  // Each line is parsed on its own; a malformed one (damage in a manifest
  // a client streamed, say) is skipped and counted, so the resolver
  // degrades — samples it would have attributed fall to unmapped or
  // unknown bins — and never attributes wrongly or throws.
  std::vector<bool> defined;  // image ids seen on a well-formed image line
  std::map<std::uint32_t, std::vector<SymbolLine>> sym_lines;  // by image id
  std::size_t sym_count = 0;
  std::vector<std::pair<hw::Pid, ArchivedVma>> vma_lines;
  std::vector<Range> kernel_lines, hyp_lines;
  const auto parse_line = [&](std::string_view line) {
    std::string_view rest = line, tag, text[2];
    std::uint64_t n[5] = {};
    if (!support::scan_token(rest, tag)) return true;  // blank line
    if (tag == "image") {
      const auto kind = scan_fields(rest, "dtd*", n, text) ? kind_from(text[0]) : std::nullopt;
      if (!kind || n[0] >= kMaxImageId || n[1] > 1) return false;
      if (images_.size() <= n[0]) {
        images_.resize(n[0] + 1);
        defined.resize(n[0] + 1);
      }
      images_[n[0]].name = text[1];
      images_[n[0]].kind = *kind;
      images_[n[0]].stripped = n[1] != 0;
      defined[n[0]] = true;
      return true;
    }
    if (tag == "sym") {
      if (!scan_fields(rest, "dhd*", n, text) || n[0] >= kMaxImageId) return false;
      sym_lines[static_cast<std::uint32_t>(n[0])].push_back({n[1], n[2], text[0], sym_count++});
      return true;
    }
    if (tag == "proc") {
      if (!scan_fields(rest, "d*", n, text) || n[0] > 0xffffffffu) return false;
      processes_[static_cast<hw::Pid>(n[0])].name = text[0];
      return true;
    }
    if (tag == "vma") {
      if (!scan_fields(rest, "dhhdd", n, text) || n[0] > 0xffffffffu || n[3] >= kMaxImageId)
        return false;
      vma_lines.push_back({static_cast<hw::Pid>(n[0]),
                           {n[1], n[2], static_cast<std::uint32_t>(n[3]), n[4], support::Name()}});
      return true;
    }
    if (tag == "kernel" || tag == "hyp") {
      if (!scan_fields(rest, "dhd", n, text) || n[0] >= kMaxImageId) return false;
      (tag == "kernel" ? kernel_lines : hyp_lines)
          .push_back(Range{static_cast<std::uint32_t>(n[0]), n[1], n[2]});
      return true;
    }
    const auto reg = parse_reg_line(line);
    if (reg) registrations_.push_back(*reg);
    return reg.has_value();
  };
  support::LineCursor cursor(*manifest);
  std::string_view line;
  while (cursor.next(line))
    if (!parse_line(line)) ++malformed_lines_;
  if (!cursor.tail().empty() && !parse_line(cursor.tail())) ++malformed_lines_;

  // Everything that names an image must name one an image line defined.
  const auto is_defined = [&defined](std::uint32_t id) {
    return id < defined.size() && defined[id];
  };
  for (auto& [id, lines] : sym_lines) {
    if (is_defined(id))
      images_[id].symbols = build_symbol_table(lines, &malformed_lines_);
    else
      malformed_lines_ += lines.size();
  }
  for (const auto& [pid, vma] : vma_lines) {
    if (is_defined(vma.image))
      processes_[pid].vmas.push_back(vma);
    else
      ++malformed_lines_;
  }
  // The last kernel (hyp) line that names a defined image wins.
  for (auto [lines, range] : {std::pair{&kernel_lines, &kernel_}, {&hyp_lines, &hypervisor_}})
    for (const Range& r : *lines) {
      if (is_defined(r.image)) *range = r;
      else ++malformed_lines_;
    }
  finish(vfs, load_jit_maps);
}

ArchiveResolver::ArchiveResolver(const os::Machine& machine,
                                 const RegistrationTable& table, bool vm_aware)
    : vm_aware_(vm_aware), registrations_(table.all()) {
  const os::ImageRegistry& registry = machine.registry();
  images_.resize(registry.count());
  for (std::uint32_t id = 0; id < registry.count(); ++id) {
    const os::Image& img = registry.get(id);
    images_[id] = {img.name(), img.kind(), img.stripped(), img.symbols().copy()};
  }
  for (const auto& proc : machine.processes()) {
    ArchivedProcess& out = processes_[proc->pid()];
    out.name = proc->name();
    for (const os::Vma& vma : proc->address_space().vmas())
      out.vmas.push_back({vma.start, vma.end, vma.image, vma.file_offset, {}});
  }
  const os::Kernel& kernel = machine.kernel();
  kernel_ = Range{kernel.image(), kernel.base(), kernel.size()};
  if (const auto& hyp = machine.hypervisor())
    hypervisor_ = Range{hyp->image, hyp->base, hyp->size};
  finish(machine.vfs(), /*load_jit_maps=*/true);
}

void ArchiveResolver::finish(const os::Vfs& vfs, bool load_jit_maps) {
  for (auto& [pid, proc] : processes_) {
    std::sort(proc.vmas.begin(), proc.vmas.end(),
              [](const ArchivedVma& a, const ArchivedVma& b) { return a.start < b.start; });
    for (ArchivedVma& vma : proc.vmas) {
      if (vma.image < images_.size() && images_[vma.image].kind == os::ImageKind::kAnon)
        vma.anon_label = "anon (range:" + support::hex(vma.start) + "-" +
                         support::hex(vma.end) + ")," + proc.name;
    }
  }
  if (!vm_aware_) return;
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

const CodeMapIndex* ArchiveResolver::code_maps(hw::Pid pid) const {
  const auto it = jit_maps_.find(pid);
  return it == jit_maps_.end() ? nullptr : &it->second;
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

Resolution ArchiveResolver::resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                                       std::uint64_t epoch,
                                       const JitIndexSource* jit) const {
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

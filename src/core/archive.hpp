// The resolution world and the one attribution tree that runs over it.
//
// The real OProfile's post-processing runs *offline*: opreport re-reads the
// binaries, /proc-style range data and sample files from disk (oparchive
// bundles them). write_archive() serialises the resolution world — images,
// symbol tables, per-process VMAs, kernel/hypervisor ranges, VM
// registrations — into the VFS next to the sample logs and code maps.
//
// ArchiveResolver holds that world in memory and implements the paper's
// post-processing decision tree (Sections 3.2-3.3) over it, once. The world
// has two fillers: the archive manifest (viprof_report, the service) and a
// capture of a live Machine + RegistrationTable (core::Resolver::load()).
// Both then load the boot maps and epoch code maps through one shared step.
// The test suite asserts bit-identical attribution between the two fills.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/code_map.hpp"
#include "core/registration.hpp"
#include "core/resolution.hpp"
#include "core/sample_log.hpp"
#include "os/machine.hpp"

namespace viprof::core {

/// Serialises the resolution world into `vfs` under `prefix` (one manifest
/// file; RVM.map / code maps / sample logs are already files).
void write_archive(const os::Machine& machine, const RegistrationTable& table,
                   os::Vfs& vfs, const std::string& prefix);

/// One manifest "reg <pid> <heap_lo> <heap_hi> <boot_base> <boot_size> <map|->
/// <dir|-> [<obj_dir|->]" line (hex addresses; older archives lack the
/// object-map dir); nullopt when malformed. Every reader of the line uses it.
std::optional<VmRegistration> parse_reg_line(std::string_view line);

/// Pluggable provider of epoch code-map indexes, consulted on the JIT
/// resolution path in place of the resolver's internally loaded maps. The
/// continuous-profiling service supplies one per ingest batch: each index
/// is flattened from the maps the session parsed on arrival, cached per
/// (vm, epoch-ceiling) and pinned for the batch's lifetime, because the
/// maps keep streaming in after a load-everything-up-front resolver is
/// built.
///
/// index_for() may return nullptr (no maps known for that pid yet); the
/// caller then takes the same path as an empty internal index, binning the
/// sample as unresolved rather than misattributing it.
class JitIndexSource {
 public:
  virtual ~JitIndexSource() = default;
  virtual const CodeMapIndex* index_for(hw::Pid pid, std::uint64_t epoch) const = 0;
};

/// The attribution tree over an in-memory resolution world. Thread-safe
/// for concurrent resolve calls: after construction nothing mutates.
class ArchiveResolver {
 public:
  /// Fills the world from the manifest written by write_archive()
  /// (malformed lines are skipped and counted, see malformed_lines());
  /// `vm_aware` selects VIProf vs stock-OProfile behaviour.
  /// `load_jit_maps = false` skips loading the epoch code maps — for
  /// callers that resolve through an external JitIndexSource instead.
  ArchiveResolver(const os::Vfs& vfs, const std::string& prefix, bool vm_aware,
                  bool load_jit_maps = true);

  /// Fills the world by capturing `machine` and `table` as they stand (the
  /// boot and code maps are read from the machine's VFS). The capture
  /// holds no reference to either.
  ArchiveResolver(const os::Machine& machine, const RegistrationTable& table,
                  bool vm_aware);

  /// The attribution tree. JIT-heap PCs resolve through `jit` when given,
  /// else through the internally loaded maps; the two are byte-identical
  /// when `jit` serves the same index contents.
  Resolution resolve(const LoggedSample& s, const JitIndexSource* jit = nullptr) const {
    return resolve_pc(s.pc, s.mode, s.pid, s.epoch, jit);
  }
  Resolution resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid, std::uint64_t epoch,
                        const JitIndexSource* jit = nullptr) const;

  const std::vector<VmRegistration>& registrations() const { return registrations_; }

  /// The epoch code-map index loaded for `pid`, or nullptr.
  const CodeMapIndex* code_maps(hw::Pid pid) const;

  std::size_t image_count() const { return images_.size(); }
  /// Manifest lines skipped as malformed (bad fields, an undefined image,
  /// an overlapping symbol): the resolver answers without them.
  std::size_t malformed_lines() const { return malformed_lines_; }
  std::size_t process_count() const { return processes_.size(); }

 private:
  struct ArchivedImage {
    support::Name name;
    os::ImageKind kind = os::ImageKind::kExecutable;
    bool stripped = false;
    os::SymbolTable symbols;
  };
  struct ArchivedVma {
    hw::Address start = 0, end = 0;
    std::uint32_t image = 0;
    std::uint64_t file_offset = 0;
    support::Name anon_label;  // stock OProfile's "anon (range:...)" image name
  };
  struct ArchivedProcess {
    std::string name;
    std::vector<ArchivedVma> vmas;  // sorted by start
  };
  struct Range {
    std::uint32_t image = 0;
    hw::Address base = 0;
    std::uint64_t size = 0;
    bool contains(hw::Address pc) const { return pc >= base && pc < base + size; }
  };

  const ArchivedVma* find_vma(const ArchivedProcess& proc, hw::Address pc) const;
  /// The step both fillers end with: sorts the VMAs, labels the anonymous
  /// ones, and (VIProf view) loads each registration's boot map and epoch
  /// code maps from `vfs`.
  void finish(const os::Vfs& vfs, bool load_jit_maps);

  bool vm_aware_;
  std::size_t malformed_lines_ = 0;
  std::vector<ArchivedImage> images_;
  std::unordered_map<hw::Pid, ArchivedProcess> processes_;
  std::optional<Range> kernel_;
  std::optional<Range> hypervisor_;
  std::vector<VmRegistration> registrations_;
  std::unordered_map<hw::Pid, os::SymbolTable> boot_maps_;
  std::unordered_map<hw::Pid, support::Name> boot_labels_;
  std::unordered_map<hw::Pid, CodeMapIndex> jit_maps_;
};

}  // namespace viprof::core

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/archive.hpp"
#include "core/viprof.hpp"
#include "workloads/generator.hpp"

namespace viprof::core {
namespace {

struct ArchivedRun {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<ProfilingSession> session;
  SessionResult result;
};

ArchivedRun run_and_archive(ProfilingMode mode) {
  ArchivedRun run;
  os::MachineConfig mcfg;
  mcfg.seed = 0xa4c;
  run.machine = std::make_unique<os::Machine>(mcfg);

  workloads::GeneratorOptions opt;
  opt.name = "arch";
  opt.seed = 6;
  opt.methods = 20;
  opt.total_app_ops = 3'000'000;
  opt.alloc_intensity = 0.6;
  opt.nursery_bytes = 512 * 1024;
  opt.native_frac = 0.08;
  opt.syscall_frac = 0.04;
  const workloads::Workload w = workloads::make_synthetic(opt);

  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  SessionConfig config;
  config.mode = mode;
  run.session = std::make_unique<ProfilingSession>(*run.machine, *run.vm, config);
  run.session->attach();
  run.vm->setup(w.program);
  run.result = run.session->run();
  run.session->export_archive();
  return run;
}

TEST(Archive, ManifestWritten) {
  ArchivedRun run = run_and_archive(ProfilingMode::kViprof);
  ASSERT_TRUE(run.machine->vfs().exists("archive/manifest"));
  const std::string manifest = *run.machine->vfs().read("archive/manifest");
  EXPECT_NE(manifest.find("image "), std::string::npos);
  EXPECT_NE(manifest.find("kernel "), std::string::npos);
  EXPECT_NE(manifest.find("reg "), std::string::npos);
  EXPECT_NE(manifest.find("vmlinux"), std::string::npos);
}

TEST(Archive, OfflineResolverMatchesLiveResolverExactly) {
  ArchivedRun run = run_and_archive(ProfilingMode::kViprof);
  Resolver& live = run.session->resolver();
  const ArchiveResolver offline(run.machine->vfs(), "archive", true);

  std::uint64_t compared = 0;
  for (hw::EventKind event : hw::kAllEventKinds) {
    for (const LoggedSample& s : SampleLogReader::read(
             run.machine->vfs(), run.session->daemon()->sample_dir(), event)) {
      const Resolution a = live.resolve(s);
      const Resolution b = offline.resolve(s);
      ASSERT_EQ(a.image, b.image) << "pc=" << s.pc;
      ASSERT_EQ(a.symbol, b.symbol) << "pc=" << s.pc;
      ASSERT_EQ(a.domain, b.domain) << "pc=" << s.pc;
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
}

TEST(Archive, OprofileViewMatchesToo) {
  ArchivedRun run = run_and_archive(ProfilingMode::kOprofile);
  Resolver& live = run.session->resolver();  // vm_aware = false in this mode
  const ArchiveResolver offline(run.machine->vfs(), "archive", false);
  std::uint64_t anon_rows = 0;
  for (const LoggedSample& s : SampleLogReader::read(
           run.machine->vfs(), run.session->daemon()->sample_dir(),
           hw::EventKind::kGlobalPowerEvents)) {
    const Resolution a = live.resolve(s);
    const Resolution b = offline.resolve(s);
    ASSERT_EQ(a.image, b.image);
    ASSERT_EQ(a.symbol, b.symbol);
    if (b.domain == SampleDomain::kAnon) ++anon_rows;
  }
  EXPECT_GT(anon_rows, 0u);
}

TEST(Archive, SurvivesDiskRoundTrip) {
  ArchivedRun run = run_and_archive(ProfilingMode::kViprof);
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("viprof_archive_test_" + std::to_string(::getpid()));
  run.machine->vfs().export_to_directory(dir.string());

  os::Vfs imported;
  imported.import_from_directory(dir.string());
  const ArchiveResolver offline(imported, "archive", true);
  EXPECT_GT(offline.image_count(), 3u);
  EXPECT_GE(offline.process_count(), 2u);  // jikesrvm + oprofiled

  Resolver& live = run.session->resolver();
  std::uint64_t compared = 0;
  for (const LoggedSample& s : SampleLogReader::read(imported, "samples",
                                                     hw::EventKind::kGlobalPowerEvents)) {
    const Resolution a = live.resolve(s);
    const Resolution b = offline.resolve(s);
    ASSERT_EQ(a.image, b.image);
    ASSERT_EQ(a.symbol, b.symbol);
    ++compared;
  }
  EXPECT_GT(compared, 50u);
  fs::remove_all(dir);
}

TEST(Archive, StrippedAndAnonKindsPreserved) {
  ArchivedRun run = run_and_archive(ProfilingMode::kViprof);
  const std::string manifest = *run.machine->vfs().read("archive/manifest");
  EXPECT_NE(manifest.find(" anon "), std::string::npos);   // heap mapping
  EXPECT_NE(manifest.find(" boot "), std::string::npos);   // RVM.code.image
  EXPECT_NE(manifest.find(" lib "), std::string::npos);    // libc
}

TEST(VfsDisk, ExportImportRoundTrip) {
  namespace fs = std::filesystem;
  os::Vfs vfs;
  vfs.write("a/b/c.txt", "hello");
  vfs.write("top.txt", "world");
  const fs::path dir =
      fs::temp_directory_path() / ("viprof_vfs_test_" + std::to_string(::getpid()));
  vfs.export_to_directory(dir.string());
  os::Vfs back;
  back.import_from_directory(dir.string());
  EXPECT_EQ(*back.read("a/b/c.txt"), "hello");
  EXPECT_EQ(*back.read("top.txt"), "world");
  EXPECT_EQ(back.file_count(), 2u);
  fs::remove_all(dir);
}

TEST(VfsDisk, PrefixedExport) {
  namespace fs = std::filesystem;
  os::Vfs vfs;
  vfs.write("samples/x", "1");
  vfs.write("other/y", "2");
  const fs::path dir =
      fs::temp_directory_path() / ("viprof_vfs_prefix_" + std::to_string(::getpid()));
  vfs.export_to_directory(dir.string(), "samples");
  EXPECT_TRUE(fs::exists(dir / "samples/x"));
  EXPECT_FALSE(fs::exists(dir / "other/y"));
  fs::remove_all(dir);
}

TEST(ArchiveRegLine, ParsesCurrentAndPreMemprofLines) {
  const auto reg = parse_reg_line("reg 42 0x60000000 0x68000000 0x40000000 4096 "
                                  "boot/RVM.map jit_maps obj_maps");
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->pid, 42u);
  EXPECT_EQ(reg->heap_lo, 0x60000000u);
  EXPECT_EQ(reg->heap_hi, 0x68000000u);
  EXPECT_EQ(reg->boot_base, 0x40000000u);
  EXPECT_EQ(reg->boot_size, 4096u);
  EXPECT_EQ(reg->boot_map_path, "boot/RVM.map");
  EXPECT_EQ(reg->jit_map_dir, "jit_maps");
  EXPECT_EQ(reg->obj_map_dir, "obj_maps");

  // "-" means absent; the object-map dir may be missing altogether.
  const auto old = parse_reg_line("reg 7 10 20 30 0 - jit_maps");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->heap_lo, 0x10u);
  EXPECT_EQ(old->boot_map_path, "");
  EXPECT_EQ(old->obj_map_dir, "");
  EXPECT_EQ(parse_reg_line("reg 7 10 20 30 0 - - -")->jit_map_dir, "");
}

TEST(ArchiveRegLine, RejectsMalformedLines) {
  EXPECT_FALSE(parse_reg_line("reg 7 10 20 30 0 -").has_value());  // no jit dir
  EXPECT_FALSE(parse_reg_line("regx 7 10 20 30 0 - -").has_value());
  EXPECT_FALSE(parse_reg_line("reg 4294967296 10 20 30 0 - -").has_value());
  EXPECT_FALSE(parse_reg_line("reg 7 zz 20 30 0 - -").has_value());
  EXPECT_FALSE(parse_reg_line("vma 7 10 20 30 0 - -").has_value());
}

}  // namespace
}  // namespace viprof::core

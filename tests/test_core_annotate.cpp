#include <gtest/gtest.h>

#include <memory>

#include "core/annotate.hpp"
#include "core/viprof.hpp"
#include "workloads/generator.hpp"

namespace viprof::core {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;

Resolution fixed_resolution(const std::string& image, const std::string& symbol,
                            hw::Address base, std::uint64_t size) {
  Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.symbol_base = base;
  r.symbol_size = size;
  r.domain = SampleDomain::kImage;
  return r;
}

LoggedSample at(hw::Address pc) {
  LoggedSample s;
  s.pc = pc;
  return s;
}

TEST(Annotate, BucketsByOffset) {
  // Symbol body [0x1000, 0x1100), 4 buckets of 0x40.
  std::vector<LoggedSample> samples = {at(0x1000), at(0x1001), at(0x1040),
                                       at(0x10ff), at(0x9999)};
  const Annotation ann = annotate(
      samples,
      [](const LoggedSample& s) {
        if (s.pc >= 0x1000 && s.pc < 0x1100)
          return fixed_resolution("img", "f", 0x1000, 0x100);
        return fixed_resolution("other", "g", 0x9000, 0x1000);
      },
      "img", "f", 4);
  EXPECT_EQ(ann.total_samples, 4u);  // the 0x9999 sample is g
  EXPECT_EQ(ann.buckets[0], 2u);
  EXPECT_EQ(ann.buckets[1], 1u);
  EXPECT_EQ(ann.buckets[2], 0u);
  EXPECT_EQ(ann.buckets[3], 1u);
  EXPECT_EQ(ann.out_of_range, 0u);
}

TEST(Annotate, OutOfRangeCounted) {
  std::vector<LoggedSample> samples = {at(0x2000)};
  const Annotation ann = annotate(
      samples,
      [](const LoggedSample&) {
        // Resolution claims the symbol but with an extent not covering pc.
        return fixed_resolution("img", "f", 0x1000, 0x100);
      },
      "img", "f", 4);
  EXPECT_EQ(ann.total_samples, 1u);
  EXPECT_EQ(ann.out_of_range, 1u);
}

TEST(Annotate, RenderContainsBarsAndOffsets) {
  std::vector<LoggedSample> samples = {at(0x1000), at(0x1000), at(0x10c0)};
  const Annotation ann = annotate(
      samples,
      [](const LoggedSample&) { return fixed_resolution("img", "f", 0x1000, 0x100); },
      "img", "f", 4);
  const std::string out = ann.render();
  EXPECT_NE(out.find("img:f"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("0x40"), std::string::npos);
}

TEST(Annotate, EndToEndJitMethodStableAcrossMoves) {
  // Profile a real run, annotate the hottest JIT method: every in-body
  // sample must land in range even though the body moved between epochs
  // (offsets are computed against the epoch-correct body address).
  os::MachineConfig mcfg;
  mcfg.seed = 0xa22;
  os::Machine machine(mcfg);
  workloads::GeneratorOptions opt;
  opt.name = "anno";
  opt.seed = 2;
  opt.methods = 8;
  opt.zipf = 1.6;
  opt.total_app_ops = 4'000'000;
  opt.alloc_intensity = 0.7;
  opt.nursery_bytes = 512 * 1024;
  const workloads::Workload w = workloads::make_synthetic(opt);
  jvm::Vm vm(machine, w.vm);
  SessionConfig config;
  config.mode = ProfilingMode::kViprof;
  config.counters = {{kTime, 20'000, true}};
  ProfilingSession session(machine, vm, config);
  session.attach();
  vm.setup(w.program);
  const SessionResult result = session.run();
  ASSERT_GT(result.vm.collections, 1u);  // bodies actually moved

  const Profile profile = session.build_profile({kTime});
  std::string hot_symbol;
  for (const ProfileRow& row : profile.ranked(kTime)) {
    if (row.domain == SampleDomain::kJit && row.symbol.view()[0] != '(') {
      hot_symbol = row.symbol;
      break;
    }
  }
  ASSERT_FALSE(hot_symbol.empty());

  Resolver& resolver = session.resolver();
  const auto samples =
      SampleLogReader::read(machine.vfs(), session.daemon()->sample_dir(), kTime);
  const Annotation ann = annotate(
      samples, [&](const LoggedSample& s) { return resolver.resolve(s); }, "JIT.App",
      hot_symbol);
  EXPECT_GT(ann.total_samples, 20u);
  EXPECT_EQ(ann.out_of_range, 0u);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : ann.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, ann.total_samples);
  EXPECT_GT(ann.symbol_size, 0u);
}

TEST(Annotate, ResolutionCarriesSymbolExtent) {
  os::Machine machine;
  workloads::GeneratorOptions opt;
  opt.name = "ext";
  opt.methods = 4;
  opt.total_app_ops = 500'000;
  const workloads::Workload w = workloads::make_synthetic(opt);
  jvm::Vm vm(machine, w.vm);
  SessionConfig config;
  config.mode = ProfilingMode::kViprof;
  ProfilingSession session(machine, vm, config);
  session.attach();
  vm.setup(w.program);
  session.run();
  Resolver& r = session.resolver();
  // Kernel symbol extent.
  const hw::Address pc = machine.kernel().routine("sys_write").base + 8;
  const Resolution res = r.resolve_pc(pc, hw::CpuMode::kKernel, vm.pid(), 0);
  EXPECT_EQ(res.symbol_base, machine.kernel().routine("sys_write").base);
  EXPECT_EQ(res.symbol_size, machine.kernel().routine("sys_write").size);
  EXPECT_GE(pc, res.symbol_base);
  EXPECT_LT(pc, res.symbol_base + res.symbol_size);
}

}  // namespace
}  // namespace viprof::core

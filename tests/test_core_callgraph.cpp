#include <gtest/gtest.h>

#include <memory>

#include "core/callgraph.hpp"
#include "os/loader.hpp"

namespace viprof::core {
namespace {

// Minimal world: one process with a libc mapping and a registered JIT heap
// with one code-map entry, so arcs can cross the JIT -> native boundary.
class CallGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os::Process& proc = machine_.spawn("jikesrvm");
    pid_ = proc.pid();
    os::Image& libc =
        machine_.registry().create("libc-2.3.2.so", os::ImageKind::kSharedLib, 64 * 1024);
    libc.symbols().add("memset", 0, 0x1000);
    libc_base_ = machine_.loader().load_library(proc, libc.id()).start;
    heap_base_ = machine_.loader().map_anon(proc, 1 << 20).start;

    VmRegistration reg;
    reg.pid = pid_;
    reg.heap_lo = heap_base_;
    reg.heap_hi = heap_base_ + (1 << 20);
    reg.jit_map_dir = "jit_maps";
    table_.add(reg);

    CodeMapFile map0;
    map0.epoch = 0;
    map0.entries.push_back({heap_base_ + 0x100, 0x100, support::Name("app.Hot.loop")});
    machine_.vfs().write(CodeMapFile::path_for("jit_maps", pid_, 0), map0.serialize(pid_));

    resolver_ = std::make_unique<Resolver>(machine_, table_, true);
    resolver_->load();
  }

  LoggedSample arc_sample(hw::Address pc, hw::Address caller) {
    LoggedSample s;
    s.pc = pc;
    s.caller_pc = caller;
    s.mode = hw::CpuMode::kUser;
    s.pid = pid_;
    s.epoch = 0;
    return s;
  }

  os::Machine machine_;
  RegistrationTable table_;
  std::unique_ptr<Resolver> resolver_;
  hw::Pid pid_ = 0;
  hw::Address libc_base_ = 0, heap_base_ = 0;
};

TEST_F(CallGraphTest, AggregatesArcs) {
  CallGraph graph(*resolver_);
  for (int i = 0; i < 3; ++i)
    graph.add(arc_sample(libc_base_ + 0x10, heap_base_ + 0x120));
  graph.add(arc_sample(libc_base_ + 0x20, heap_base_ + 0x180));  // same arc
  const auto arcs = graph.ranked();
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].count, 4u);
  EXPECT_EQ(arcs[0].caller_symbol, "app.Hot.loop");
  EXPECT_EQ(arcs[0].callee_symbol, "memset");
}

TEST_F(CallGraphTest, SamplesWithoutCallerIgnored) {
  CallGraph graph(*resolver_);
  graph.add(arc_sample(libc_base_, 0));
  EXPECT_EQ(graph.total_samples(), 0u);
  EXPECT_EQ(graph.total_arcs(), 0u);
}

TEST_F(CallGraphTest, CrossLayerDetection) {
  CallGraph graph(*resolver_);
  // JIT -> native: crosses layers.
  graph.add(arc_sample(libc_base_ + 0x10, heap_base_ + 0x120));
  // JIT -> JIT: same layer.
  graph.add(arc_sample(heap_base_ + 0x110, heap_base_ + 0x150));
  const auto cross = graph.cross_layer_arcs();
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0].callee_image, "libc-2.3.2.so");
  EXPECT_TRUE(cross[0].crosses_layers());
  EXPECT_EQ(graph.total_arcs(), 2u);
}

TEST_F(CallGraphTest, KernelCalleeCrossesLayers) {
  CallGraph graph(*resolver_);
  LoggedSample s = arc_sample(machine_.kernel().routine("sys_read").base + 4,
                              heap_base_ + 0x120);
  s.mode = hw::CpuMode::kKernel;
  graph.add(s);
  const auto cross = graph.cross_layer_arcs();
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0].callee_symbol, "sys_read");
  EXPECT_EQ(cross[0].caller_domain, SampleDomain::kJit);
  EXPECT_EQ(cross[0].callee_domain, SampleDomain::kKernel);
}

TEST_F(CallGraphTest, RankedOrdersByCount) {
  CallGraph graph(*resolver_);
  for (int i = 0; i < 5; ++i)
    graph.add(arc_sample(libc_base_ + 0x10, heap_base_ + 0x120));
  graph.add(arc_sample(heap_base_ + 0x110, heap_base_ + 0x150));
  const auto arcs = graph.ranked();
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_GE(arcs[0].count, arcs[1].count);
}

TEST_F(CallGraphTest, RenderListsArcs) {
  CallGraph graph(*resolver_);
  graph.add(arc_sample(libc_base_ + 0x10, heap_base_ + 0x120));
  const std::string out = graph.render(10);
  EXPECT_NE(out.find("app.Hot.loop"), std::string::npos);
  EXPECT_NE(out.find("memset"), std::string::npos);
  EXPECT_NE(out.find("->"), std::string::npos);
}

}  // namespace
}  // namespace viprof::core

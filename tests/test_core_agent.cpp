#include <gtest/gtest.h>

#include <memory>

#include "core/agent.hpp"
#include "core/code_map.hpp"

namespace viprof::core {
namespace {

// Drives the agent hooks directly against a hand-built heap, isolating the
// agent's code-buffer / flag / map-write behaviour from the VM.
class AgentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    buffer_ = std::make_unique<SampleBuffer>(1024);
    agent_ = std::make_unique<VmAgent>(machine_, *buffer_, table_, config_);

    jvm::HeapConfig hc;
    hc.heap_bytes = 8ull << 20;
    hc.code_semi_bytes = 1ull << 20;
    hc.mature_code_bytes = 2ull << 20;
    os::Process& proc = machine_.spawn("jikesrvm");
    pid_ = proc.pid();
    heap_ = std::make_unique<jvm::Heap>(0x6000'0000, hc);
    boot_ = std::make_unique<jvm::BootImage>(machine_.registry(), machine_.vfs(),
                                             "RVM.map");

    jvm::VmStartInfo info;
    info.pid = pid_;
    info.heap_lo = heap_->base();
    info.heap_hi = heap_->end();
    info.boot = boot_.get();
    info.boot_base = 0x5800'0000;
    info.heap = heap_.get();
    agent_->on_vm_start(info);
  }

  jvm::MethodInfo method(jvm::MethodId id) {
    jvm::MethodInfo m;
    m.id = id;
    m.klass = "pkg.Klass" + std::to_string(id);
    m.name = "run";
    return m;
  }

  const jvm::CodeObject& compile(jvm::MethodId id) {
    const jvm::CodeObject& code = heap_->alloc_code(id, 512, jvm::OptLevel::kBaseline);
    agent_->on_method_compiled(method(id), code);
    return code;
  }

  AgentConfig config_;
  os::Machine machine_;
  RegistrationTable table_;
  std::unique_ptr<SampleBuffer> buffer_;
  std::unique_ptr<VmAgent> agent_;
  std::unique_ptr<jvm::Heap> heap_;
  std::unique_ptr<jvm::BootImage> boot_;
  hw::Pid pid_ = 0;
};

TEST_F(AgentTest, RegistersVmOnStart) {
  ASSERT_EQ(table_.all().size(), 1u);
  const VmRegistration& reg = table_.all()[0];
  EXPECT_EQ(reg.pid, pid_);
  EXPECT_EQ(reg.heap_lo, heap_->base());
  EXPECT_EQ(reg.heap_hi, heap_->end());
  EXPECT_EQ(reg.boot_map_path, "RVM.map");
  EXPECT_NE(table_.find_heap(pid_, heap_->base() + 100), nullptr);
  EXPECT_EQ(table_.find_heap(pid_, heap_->end()), nullptr);
}

TEST_F(AgentTest, AgentLibraryLoadedIntoProcess) {
  EXPECT_NE(machine_.registry().find_by_name("libviprofagent.so"), nullptr);
  ASSERT_NE(agent_->agent_context(), nullptr);
  const os::Process* proc = machine_.find_process(pid_);
  EXPECT_TRUE(
      proc->address_space().find(agent_->agent_context()->code_base).has_value());
}

TEST_F(AgentTest, EpochMapContainsCompiledBodies) {
  // Capture addresses by value: alloc_code may relocate the object table.
  const hw::Address a = compile(1).address;
  const hw::Address b = compile(2).address;
  agent_->on_epoch_end(heap_->epoch(), false);

  CodeMapIndex index;
  index.load(machine_.vfs(), config_.map_dir, pid_);
  EXPECT_EQ(index.resolve(a, 0)->symbol, "pkg.Klass1.run");
  EXPECT_EQ(index.resolve(b + 100, 0)->symbol, "pkg.Klass2.run");
}

TEST_F(AgentTest, EpochMarkerPushedOnMapWrite) {
  compile(1);
  agent_->on_epoch_end(heap_->epoch(), false);
  bool saw_marker = false;
  while (const auto s = buffer_->pop()) {
    if (s->kind == RecordKind::kEpochMarker) {
      saw_marker = true;
      EXPECT_EQ(s->epoch, 0u);
    }
  }
  EXPECT_TRUE(saw_marker);
}

TEST_F(AgentTest, PendingClearedAfterWrite) {
  compile(1);
  agent_->on_epoch_end(0, false);
  agent_->on_epoch_end(1, false);  // no new compiles: empty partial map
  const auto contents =
      machine_.vfs().read(CodeMapFile::path_for(config_.map_dir, pid_, 1));
  ASSERT_TRUE(contents.has_value());
  const auto parsed = CodeMapFile::parse(*contents, CodeMapFile::frame_hash(pid_, 1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->entries.empty());
}

TEST_F(AgentTest, MovedBodiesEnterNextMapAtNewAddress) {
  const jvm::CodeId id = compile(1).id;
  agent_->on_epoch_end(0, false);  // map 0 has the pre-move address
  const hw::Address old_address = heap_->code(id).address;

  heap_->collect([&](const jvm::CodeObject& moved, hw::Address old) {
    agent_->on_method_moved(method(moved.method), old, moved);
  });
  const hw::Address new_address = heap_->code(id).address;
  ASSERT_NE(new_address, old_address);
  agent_->on_epoch_end(1, false);  // map 1: flagged move, current address

  CodeMapIndex index;
  index.load(machine_.vfs(), config_.map_dir, pid_);
  // Samples from epoch 0 resolve at the old address; epoch 1 at the new one.
  EXPECT_EQ(index.resolve(old_address, 0)->symbol, "pkg.Klass1.run");
  EXPECT_EQ(index.resolve(new_address, 1)->symbol, "pkg.Klass1.run");
  EXPECT_FALSE(index.resolve(new_address, 0).has_value());
}

TEST_F(AgentTest, FlagModeIsCheaperThanLogMode) {
  const jvm::CodeObject& code = compile(1);
  const hw::Cycles flag_cost =
      agent_->on_method_moved(method(1), code.address, code);
  EXPECT_EQ(flag_cost, config_.move_flag_cost);

  AgentConfig log_config = config_;
  log_config.log_moves_immediately = true;
  SampleBuffer buffer2(64);
  RegistrationTable table2;
  VmAgent logger(machine_, buffer2, table2, log_config);
  jvm::VmStartInfo info;
  info.pid = pid_;
  info.heap = heap_.get();
  info.heap_lo = heap_->base();
  info.heap_hi = heap_->end();
  logger.on_vm_start(info);
  const hw::Cycles log_cost = logger.on_method_moved(method(1), code.address, code);
  EXPECT_EQ(log_cost, log_config.move_log_cost);
  EXPECT_GT(log_cost, flag_cost);
}

TEST_F(AgentTest, DuplicateEventsDedupedWithinEpoch) {
  const jvm::CodeObject& code = compile(1);
  // The same body flagged twice (e.g. probed twice) appears once per map.
  agent_->on_method_moved(method(1), code.address, code);
  agent_->on_method_moved(method(1), code.address, code);
  agent_->on_epoch_end(0, false);
  const auto parsed =
      CodeMapFile::parse(*machine_.vfs().read(CodeMapFile::path_for(config_.map_dir, pid_, 0)),
                         CodeMapFile::frame_hash(pid_, 0));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->entries.size(), 1u);
}

TEST_F(AgentTest, CostsScaleWithEntries) {
  for (jvm::MethodId id = 0; id < 10; ++id) compile(id);
  const hw::Cycles cost = agent_->on_epoch_end(0, false);
  EXPECT_EQ(cost, config_.map_write_base + 10 * config_.map_write_per_entry);
  EXPECT_EQ(agent_->stats().maps_written, 1u);
  EXPECT_EQ(agent_->stats().map_entries_written, 10u);
}

TEST_F(AgentTest, StatsAccumulate) {
  compile(1);
  compile(2);
  const jvm::CodeObject& code = heap_->code(0);
  agent_->on_method_moved(method(code.method), code.address, code);
  agent_->on_epoch_end(0, false);
  const AgentStats& stats = agent_->stats();
  EXPECT_EQ(stats.compiles_logged, 2u);
  EXPECT_EQ(stats.moves_flagged, 1u);
  EXPECT_EQ(stats.moves_logged, 0u);
  EXPECT_GT(stats.cost_cycles, 0u);
}

}  // namespace
}  // namespace viprof::core

// Parallel resolution pipeline (DESIGN.md §9): hash-aggregated
// Profile/CallGraph merging, and the pipeline's central promise —
// byte-identical output for any thread count. The pool itself is covered
// by test_support_thread_pool.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/resolve_pipeline.hpp"
#include "core/resolver.hpp"
#include "jvm/boot_image.hpp"
#include "os/loader.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

// --- Profile / CallGraph merge ----------------------------------------------

Resolution res_of(const std::string& image, const std::string& symbol) {
  Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.domain = SampleDomain::kImage;
  return r;
}

TEST(ProfileMergeTest, MergeSumsCountsAndKeepsFirstInsertionOrder) {
  const hw::EventKind e = hw::EventKind::kGlobalPowerEvents;
  Profile a;
  a.add(e, res_of("img", "alpha"));
  a.add(e, res_of("img", "beta"), 3);

  Profile b;
  b.add(e, res_of("img", "beta"), 2);  // existing row
  b.add(e, res_of("img", "gamma"));    // new row, must append after beta

  a.merge(b);
  EXPECT_EQ(a.total(e), 7u);
  ASSERT_EQ(a.row_count(), 3u);
  EXPECT_EQ(a.rows()[0].symbol, "alpha");
  EXPECT_EQ(a.rows()[1].symbol, "beta");
  EXPECT_EQ(a.rows()[2].symbol, "gamma");
  EXPECT_EQ(a.find("img", "beta")->count(e), 5u);
}

TEST(ProfileMergeTest, ShardOrderMergeMatchesSerialAggregation) {
  // Split a sample stream into contiguous shards, aggregate each privately,
  // merge in shard order: identical rows in identical order.
  const hw::EventKind e = hw::EventKind::kBsqCacheReference;
  support::Xoshiro256 rng(7);
  std::vector<Resolution> stream;
  for (int i = 0; i < 500; ++i) {
    stream.push_back(res_of("img" + std::to_string(rng.below(3)),
                            "sym" + std::to_string(rng.below(40))));
  }

  Profile serial;
  for (const Resolution& r : stream) serial.add(e, r);

  Profile merged;
  const std::size_t shards = 7;
  for (std::size_t k = 0; k < shards; ++k) {
    Profile part;
    const std::size_t lo = stream.size() * k / shards;
    const std::size_t hi = stream.size() * (k + 1) / shards;
    for (std::size_t i = lo; i < hi; ++i) part.add(e, stream[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.render({e}, 50), serial.render({e}, 50));
  ASSERT_EQ(merged.row_count(), serial.row_count());
  for (std::size_t i = 0; i < serial.row_count(); ++i) {
    EXPECT_EQ(merged.rows()[i].symbol, serial.rows()[i].symbol) << i;
    EXPECT_EQ(merged.rows()[i].count(e), serial.rows()[i].count(e)) << i;
  }
}

// --- End-to-end pipeline ----------------------------------------------------

// Full resolver scenario with churning epoch maps, shared by the
// thread-count equivalence tests.
class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os::Process& proc = machine_.spawn("jikesrvm");
    pid_ = proc.pid();

    os::Image& exec =
        machine_.registry().create("jikesrvm", os::ImageKind::kExecutable, 32 * 1024);
    exec.symbols().add("main", 0, 4096);
    exec_base_ = machine_.loader().load_executable(proc, exec.id()).start;

    boot_ = std::make_unique<jvm::BootImage>(machine_.registry(), machine_.vfs(),
                                             "RVM.map");
    boot_base_ = machine_.loader().map_at_anon_slot(proc, boot_->image()).start;
    heap_base_ = machine_.loader().map_anon(proc, 4 << 20).start;

    VmRegistration reg;
    reg.pid = pid_;
    reg.heap_lo = heap_base_;
    reg.heap_hi = heap_base_ + (4 << 20);
    reg.boot_base = boot_base_;
    reg.boot_size = boot_->size();
    reg.boot_map_path = "RVM.map";
    reg.jit_map_dir = "jit_maps";
    table_.add(reg);

    // 12 epochs over 64 method slots, with churn; epoch 5 left missing and
    // epoch 8 truncated so the degradation bins are exercised too.
    for (std::uint64_t e = 0; e < 12; ++e) {
      if (e == 5) continue;
      CodeMapFile file;
      file.epoch = e;
      file.truncated = e == 8;
      for (std::uint64_t i = 0; i < 24; ++i) {
        const std::uint64_t m = (e * 7 + i * 3) % 64;
        file.entries.push_back({heap_base_ + m * 0x1000 + (e % 2) * 0x100, 0x800,
                                support::Name("app.K.m" + std::to_string(m))});
      }
      machine_.vfs().write(CodeMapFile::path_for("jit_maps", pid_, e),
                           file.serialize(pid_));
    }

    support::Xoshiro256 rng(42);
    for (int n = 0; n < 6000; ++n) {
      LoggedSample s;
      s.pid = pid_;
      s.epoch = rng.below(12);
      s.cycle = static_cast<std::uint64_t>(n);
      s.caller_pc = exec_base_ + rng.below(4096);
      const std::uint64_t kind = rng.below(10);
      if (kind < 7) {
        s.pc = heap_base_ + rng.below(64) * 0x1000 + rng.below(0x1000);
      } else if (kind < 8) {
        s.pc = boot_base_ + rng.below(boot_->size());
      } else if (kind < 9) {
        s.pc = exec_base_ + rng.below(4096);
      } else {
        s.pc = machine_.kernel().routine("sys_read").base + 4;
        s.mode = hw::CpuMode::kKernel;
        s.caller_pc = 0;  // kernel samples without a caller are skipped
      }
      samples_.push_back(s);
    }
  }

  os::Machine machine_;
  RegistrationTable table_;
  std::unique_ptr<jvm::BootImage> boot_;
  hw::Pid pid_ = 0;
  hw::Address exec_base_ = 0, boot_base_ = 0, heap_base_ = 0;
  std::vector<LoggedSample> samples_;
};

TEST_F(PipelineTest, ProfileByteIdenticalAcrossThreadCounts) {
  const hw::EventKind e = hw::EventKind::kGlobalPowerEvents;
  Resolver resolver(machine_, table_, true);
  resolver.load();
  const auto fn = [&resolver](const LoggedSample& s, ResolveStats& st) {
    return resolver.resolve(s, st);
  };

  PipelineConfig serial_cfg;
  serial_cfg.threads = 1;
  ResolvePipeline serial(serial_cfg);
  Profile base;
  const ResolveStats base_stats = serial.aggregate_profile(samples_, e, fn, base);
  EXPECT_GT(base_stats.jit_resolved, 0u);
  EXPECT_GT(base_stats.unresolved_missing_map, 0u);
  EXPECT_GT(base_stats.unresolved_truncated_map, 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    PipelineConfig cfg;
    cfg.threads = threads;
    cfg.min_shard = 64;  // force real sharding despite the small input
    ResolvePipeline pipeline(cfg);
    EXPECT_EQ(pipeline.threads(), threads);
    Profile p;
    const ResolveStats stats = pipeline.aggregate_profile(samples_, e, fn, p);

    EXPECT_EQ(p.render({e}, 100), base.render({e}, 100)) << threads << " threads";
    ASSERT_EQ(p.row_count(), base.row_count());
    for (std::size_t i = 0; i < base.row_count(); ++i) {
      EXPECT_EQ(p.rows()[i].image, base.rows()[i].image);
      EXPECT_EQ(p.rows()[i].symbol, base.rows()[i].symbol);
      EXPECT_EQ(p.rows()[i].count(e), base.rows()[i].count(e));
    }
    EXPECT_EQ(stats.jit_resolved, base_stats.jit_resolved);
    EXPECT_EQ(stats.jit_unresolved, base_stats.jit_unresolved);
    EXPECT_EQ(stats.backward_steps, base_stats.backward_steps);
    EXPECT_EQ(stats.unresolved_missing_map, base_stats.unresolved_missing_map);
    EXPECT_EQ(stats.unresolved_truncated_map, base_stats.unresolved_truncated_map);
  }
}

TEST_F(PipelineTest, CallGraphByteIdenticalAcrossThreadCounts) {
  Resolver resolver(machine_, table_, true);
  resolver.load();

  CallGraph base(resolver);
  PipelineConfig serial_cfg;
  serial_cfg.threads = 1;
  ResolvePipeline(serial_cfg).aggregate_callgraph(samples_, base);
  EXPECT_GT(base.total_arcs(), 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    PipelineConfig cfg;
    cfg.threads = threads;
    cfg.min_shard = 64;
    CallGraph g(resolver);
    ResolvePipeline(cfg).aggregate_callgraph(samples_, g);
    EXPECT_EQ(g.render(100), base.render(100)) << threads << " threads";
    EXPECT_EQ(g.total_arcs(), base.total_arcs());
    EXPECT_EQ(g.total_samples(), base.total_samples());
  }
}

TEST_F(PipelineTest, FoldedStatsMatchSerialResolverCounters) {
  const hw::EventKind e = hw::EventKind::kGlobalPowerEvents;
  // Serial resolver, stats-less path: the historical behaviour.
  Resolver serial(machine_, table_, true);
  serial.load();
  Profile p1;
  for (const LoggedSample& s : samples_) p1.add(e, serial.resolve(s));

  // Pipeline + fold: the counters must end up identical.
  Resolver threaded(machine_, table_, true);
  threaded.load();
  PipelineConfig cfg;
  cfg.threads = 4;
  cfg.min_shard = 64;
  ResolvePipeline pipeline(cfg);
  Profile p2;
  const ResolveStats stats = pipeline.aggregate_profile(
      samples_, e,
      [&threaded](const LoggedSample& s, ResolveStats& st) {
        return threaded.resolve(s, st);
      },
      p2);
  threaded.fold(stats);

  EXPECT_EQ(threaded.jit_resolved(), serial.jit_resolved());
  EXPECT_EQ(threaded.jit_unresolved(), serial.jit_unresolved());
  EXPECT_EQ(threaded.backward_steps(), serial.backward_steps());
  EXPECT_EQ(threaded.unresolved_missing_map(), serial.unresolved_missing_map());
  EXPECT_EQ(threaded.unresolved_truncated_map(), serial.unresolved_truncated_map());
  EXPECT_EQ(p2.render({e}, 100), p1.render({e}, 100));
}

TEST(PipelineConfigTest, SmallInputsRunInline) {
  PipelineConfig cfg;
  cfg.threads = 8;  // default min_shard: 2048 per shard
  ResolvePipeline pipeline(cfg);
  // 100 samples < min_shard: the pipeline must still produce output (and
  // runs the serial path internally — observable only as correct results).
  std::vector<LoggedSample> samples(100);
  Profile p;
  const hw::EventKind e = hw::EventKind::kGlobalPowerEvents;
  pipeline.aggregate_profile(
      samples, e,
      [](const LoggedSample&, ResolveStats&) { return Resolution{}; }, p);
  EXPECT_EQ(p.total(e), 100u);
}

}  // namespace
}  // namespace viprof::core

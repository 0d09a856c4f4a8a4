// core::fsck_tree verdict classification and registry reporting — the
// library behind viprof_fsck and its 0/1/2 exit codes.
#include <gtest/gtest.h>

#include "core/code_map.hpp"
#include "core/fsck.hpp"
#include "core/sample_log.hpp"
#include "os/vfs.hpp"

namespace viprof::core {
namespace {

LoggedSample make_sample(hw::Address pc, std::uint64_t epoch) {
  LoggedSample s;
  s.pc = pc;
  s.caller_pc = pc + 0x10;
  s.mode = hw::CpuMode::kUser;
  s.pid = 101;
  s.epoch = epoch;
  s.cycle = 42;
  return s;
}

void write_clean_log(os::Vfs& vfs, int samples = 8) {
  SampleLogWriter writer(vfs, "samples");
  for (int i = 0; i < samples; ++i)
    writer.append(hw::EventKind::kGlobalPowerEvents, make_sample(0x1000 + i, 0));
  writer.flush();
}

void write_map(os::Vfs& vfs, std::uint64_t epoch, bool truncate_bytes) {
  CodeMapFile file;
  file.epoch = epoch;
  for (int i = 0; i < 4; ++i) {
    CodeMapEntry e;
    e.address = 0x9000'0000 + epoch * 0x1000 + i * 0x100;
    e.size = 0x80;
    e.symbol = "App.m" + std::to_string(i);
    file.entries.push_back(e);
  }
  std::string blob = file.serialize(101);
  if (truncate_bytes) blob.resize(blob.size() / 2);  // lose trailer + tail entries
  vfs.write(CodeMapFile::path_for("jit_maps", 101, epoch), blob);
}

TEST(Fsck, CleanTreeVerdict) {
  os::Vfs vfs;
  write_clean_log(vfs);
  write_map(vfs, 0, false);
  support::Telemetry tele;
  const FsckReport report = fsck_tree(vfs, nullptr, tele);

  EXPECT_EQ(report.verdict, FsckVerdict::kClean);
  EXPECT_FALSE(report.corrupt);
  EXPECT_EQ(report.valid_records, 8u);
  EXPECT_EQ(report.maps_intact, 1u);
  EXPECT_EQ(static_cast<int>(report.verdict), kFsckExitClean);
  // Findings flow through the registry.
  EXPECT_EQ(report.metrics.counter("fsck.samples.valid"), 8u);
  EXPECT_EQ(report.metrics.counter("fsck.maps.intact"), 1u);
  EXPECT_DOUBLE_EQ(report.metrics.gauge("fsck.verdict"), 0.0);
}

TEST(Fsck, TruncatedMapWithSalvageableEntriesIsSalvaged) {
  os::Vfs vfs;
  write_clean_log(vfs);
  write_map(vfs, 0, false);
  write_map(vfs, 1, true);  // damaged, but a prefix of entries survives
  support::Telemetry tele;
  const FsckReport report = fsck_tree(vfs, nullptr, tele);

  EXPECT_EQ(report.verdict, FsckVerdict::kSalvaged);
  EXPECT_TRUE(report.corrupt);
  EXPECT_EQ(report.maps_intact, 1u);
  EXPECT_EQ(report.maps_truncated, 1u);
  EXPECT_GT(report.map_entries_salvaged, 0u);
  EXPECT_EQ(report.dead_maps, 0u);
  EXPECT_EQ(static_cast<int>(report.verdict), kFsckExitSalvaged);
  EXPECT_EQ(report.metrics.counter("fsck.maps.truncated"), 1u);
  EXPECT_DOUBLE_EQ(report.metrics.gauge("fsck.verdict"), 1.0);
}

TEST(Fsck, LogWithNothingVerifiableIsUnrecoverable) {
  os::Vfs vfs;
  // A sample log that exists but contains only garbage: no record survives.
  vfs.write(SampleLogWriter::path_for("samples", hw::EventKind::kGlobalPowerEvents),
            "!!!! not a sample log\ngarbage line two\n");
  support::Telemetry tele;
  const FsckReport report = fsck_tree(vfs, nullptr, tele);

  EXPECT_EQ(report.verdict, FsckVerdict::kUnrecoverable);
  EXPECT_EQ(report.valid_records, 0u);
  EXPECT_EQ(report.dead_logs, 1u);
  EXPECT_EQ(static_cast<int>(report.verdict), kFsckExitUnrecoverable);
  EXPECT_EQ(report.metrics.counter("fsck.logs.unrecoverable"), 1u);
  EXPECT_DOUBLE_EQ(report.metrics.gauge("fsck.verdict"), 2.0);
}

TEST(Fsck, CorruptLogWithSurvivorsIsSalvagedAndRecoveryRewrites) {
  os::Vfs vfs;
  write_clean_log(vfs, 6);
  // Damage the middle of the log: some records survive on either side.
  const std::string path =
      SampleLogWriter::path_for("samples", hw::EventKind::kGlobalPowerEvents);
  std::string contents = *vfs.read(path);
  const auto mid = contents.find('\n', contents.size() / 2);
  ASSERT_NE(mid, std::string::npos);
  contents[mid + 3] = '#';
  contents[mid + 4] = '#';
  vfs.write(path, contents);

  support::Telemetry tele;
  os::Vfs out;
  FsckOptions opts;
  opts.write_recovery = true;
  const FsckReport report = fsck_tree(vfs, &out, tele, opts);

  EXPECT_EQ(report.verdict, FsckVerdict::kSalvaged);
  EXPECT_GT(report.valid_records, 0u);
  EXPECT_LT(report.valid_records, 6u);

  // The rewritten tree is clean: a second fsck over it reports no damage
  // beyond the already-counted sequence gap.
  support::Telemetry tele2;
  const FsckReport again = fsck_tree(out, nullptr, tele2);
  EXPECT_FALSE(again.corrupt);
  EXPECT_EQ(again.valid_records, report.valid_records);
}

TEST(Fsck, DetailsAndSummaryMentionFindings) {
  os::Vfs vfs;
  write_clean_log(vfs);
  write_map(vfs, 0, true);
  support::Telemetry tele;
  const FsckReport report = fsck_tree(vfs, nullptr, tele);
  EXPECT_NE(report.details.find("CORRUPT"), std::string::npos);
  EXPECT_NE(report.summary.find("salvaged"), std::string::npos);
}

}  // namespace
}  // namespace viprof::core

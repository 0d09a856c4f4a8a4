#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/sample_log.hpp"
#include "support/arena.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

LoggedSample make_sample(hw::Address pc, std::uint64_t epoch) {
  LoggedSample s;
  s.pc = pc;
  s.caller_pc = pc + 0x10;
  s.mode = hw::CpuMode::kUser;
  s.pid = 101;
  s.epoch = epoch;
  s.cycle = 777;
  return s;
}

TEST(SampleLog, RoundTrip) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "samples");
  writer.append(hw::EventKind::kGlobalPowerEvents, make_sample(0x1234, 2));
  writer.append(hw::EventKind::kGlobalPowerEvents, make_sample(0xc0001000, 3));
  writer.flush();

  const auto read =
      SampleLogReader::read(vfs, "samples", hw::EventKind::kGlobalPowerEvents);
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0].pc, 0x1234u);
  EXPECT_EQ(read[0].caller_pc, 0x1244u);
  EXPECT_EQ(read[0].pid, 101u);
  EXPECT_EQ(read[0].epoch, 2u);
  EXPECT_EQ(read[0].cycle, 777u);
  EXPECT_EQ(read[1].pc, 0xc0001000u);
  EXPECT_EQ(read[1].epoch, 3u);
}

TEST(SampleLog, KernelModePreserved) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  LoggedSample s = make_sample(0xc000'0000, 0);
  s.mode = hw::CpuMode::kKernel;
  writer.append(hw::EventKind::kBsqCacheReference, s);
  writer.flush();
  const auto read = SampleLogReader::read(vfs, "s", hw::EventKind::kBsqCacheReference);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].mode, hw::CpuMode::kKernel);
}

TEST(SampleLog, EventsGoToSeparateFiles) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  writer.append(hw::EventKind::kGlobalPowerEvents, make_sample(1, 0));
  writer.append(hw::EventKind::kBsqCacheReference, make_sample(2, 0));
  writer.flush();
  EXPECT_EQ(SampleLogReader::read(vfs, "s", hw::EventKind::kGlobalPowerEvents).size(), 1u);
  EXPECT_EQ(SampleLogReader::read(vfs, "s", hw::EventKind::kBsqCacheReference).size(), 1u);
  EXPECT_TRUE(SampleLogReader::read(vfs, "s", hw::EventKind::kItlbMiss).empty());
}

TEST(SampleLog, NothingWrittenBeforeFlush) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  writer.append(hw::EventKind::kGlobalPowerEvents, make_sample(1, 0));
  EXPECT_TRUE(SampleLogReader::read(vfs, "s", hw::EventKind::kGlobalPowerEvents).empty());
  writer.flush();
  EXPECT_EQ(SampleLogReader::read(vfs, "s", hw::EventKind::kGlobalPowerEvents).size(), 1u);
}

TEST(SampleLog, FlushAppendsAcrossBatches) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i)
      writer.append(hw::EventKind::kGlobalPowerEvents, make_sample(i, 0));
    writer.flush();
  }
  EXPECT_EQ(SampleLogReader::read(vfs, "s", hw::EventKind::kGlobalPowerEvents).size(), 30u);
  EXPECT_EQ(writer.written(hw::EventKind::kGlobalPowerEvents), 30u);
}

TEST(SampleLog, MissingDirectoryReadsEmpty) {
  os::Vfs vfs;
  EXPECT_TRUE(SampleLogReader::read(vfs, "absent", hw::EventKind::kGlobalPowerEvents).empty());
}

// --- read_checked: missing vs empty vs corrupt are distinct outcomes ------

constexpr auto kEv = hw::EventKind::kGlobalPowerEvents;

TEST(SampleLog, StatusDistinguishesMissingFromEmpty) {
  os::Vfs vfs;
  SampleLogReadStatus st;
  SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_TRUE(st.missing);
  EXPECT_FALSE(st.empty());

  vfs.write(SampleLogWriter::path_for("s", kEv), "");
  SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_FALSE(st.missing);
  EXPECT_FALSE(st.corrupt);
  EXPECT_TRUE(st.empty());
  EXPECT_TRUE(st.clean());
}

TEST(SampleLog, StatusFlagsGarbageAsCorruptNotEmpty) {
  os::Vfs vfs;
  vfs.write(SampleLogWriter::path_for("s", kEv), "this is not a sample log\n");
  SampleLogReadStatus st;
  const auto read = SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_TRUE(read.empty());
  EXPECT_TRUE(st.corrupt);
  EXPECT_FALSE(st.empty());
  EXPECT_EQ(st.discarded_lines, 1u);
  EXPECT_EQ(st.valid, 0u);
}

TEST(SampleLog, TruncatedTailIsSalvagedAndCounted) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (int i = 0; i < 10; ++i) writer.append(kEv, make_sample(0x1000 + i, 1));
  writer.flush();
  const std::string path = SampleLogWriter::path_for("s", kEv);
  std::string contents = *vfs.read(path);
  contents.resize(contents.size() - 15);  // tear mid-way through the last line
  vfs.remove(path);
  vfs.write(path, contents);

  SampleLogReadStatus st;
  const auto read = SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_EQ(read.size(), 9u);
  EXPECT_TRUE(st.corrupt);
  EXPECT_EQ(st.salvaged, 9u);
  EXPECT_EQ(st.discarded_lines, 1u);
  EXPECT_GT(st.discarded_bytes, 0u);
  for (std::size_t i = 0; i < read.size(); ++i) EXPECT_EQ(read[i].pc, 0x1000 + i);
}

TEST(SampleLog, MidFileDamageResynchronisesAtNextRecord) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (int i = 0; i < 6; ++i) writer.append(kEv, make_sample(0x2000 + i, 1));
  writer.flush();
  const std::string path = SampleLogWriter::path_for("s", kEv);
  std::string contents = *vfs.read(path);
  // Overwrite a byte in the middle of record 2's body: its checksum fails,
  // but records on either side must still verify independently.
  const std::size_t second_line = contents.find('\n', contents.find('\n') + 1) + 1;
  contents[second_line + 3] = '#';
  vfs.remove(path);
  vfs.write(path, contents);

  SampleLogReadStatus st;
  const auto read = SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_EQ(read.size(), 5u);
  EXPECT_TRUE(st.corrupt);
  EXPECT_EQ(st.discarded_lines, 1u);
  EXPECT_EQ(st.missing_records, 1u);  // the damaged record shows as a seq gap
  for (const LoggedSample& s : read) EXPECT_NE(s.pc, 0x2002u);
}

TEST(SampleLog, DuplicateSequenceNumbersAreDropped) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (int i = 0; i < 3; ++i) writer.append(kEv, make_sample(0x3000 + i, 1));
  writer.flush();
  const std::string path = SampleLogWriter::path_for("s", kEv);
  // A replayed batch that had already landed: append the same bytes again.
  const std::string contents = *vfs.read(path);
  vfs.append(path, contents);

  SampleLogReadStatus st;
  const auto read = SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_EQ(read.size(), 3u);  // each record delivered exactly once
  EXPECT_EQ(st.duplicate_records, 3u);
  EXPECT_FALSE(st.corrupt);  // duplicates are well-framed, not damage
}

TEST(SampleLog, WriteErrorSpillsAndRetrySucceeds) {
  os::Vfs vfs;
  support::FaultInjector fi;
  fi.add_rule({"s/", support::FaultKind::kWriteError, 0, 1, 1.0, 0.5});
  vfs.set_fault_injector(&fi);

  SampleLogWriter writer(vfs, "s");
  for (int i = 0; i < 4; ++i) writer.append(kEv, make_sample(0x4000 + i, 1));
  LogFlushResult first = writer.flush();
  EXPECT_EQ(first.write_errors, 1u);
  EXPECT_FALSE(first.fully_flushed);
  EXPECT_GT(writer.pending_bytes(), 0u);

  LogFlushResult second = writer.flush();  // rule exhausted: this one lands
  EXPECT_TRUE(second.fully_flushed);
  EXPECT_EQ(writer.pending_bytes(), 0u);

  SampleLogReadStatus st;
  const auto read = SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_EQ(read.size(), 4u);
  EXPECT_TRUE(st.clean());
  EXPECT_EQ(st.missing_records, 0u);
}

TEST(SampleLog, SpillOverflowDropsOldestWholeRecords) {
  os::Vfs vfs;
  support::FaultInjector fi;
  fi.add_rule({"s/", support::FaultKind::kWriteError, 0, ~0ull, 1.0, 0.5});
  vfs.set_fault_injector(&fi);

  SampleLogWriter writer(vfs, "s");
  writer.set_spill_capacity(120);  // roughly two records
  for (int i = 0; i < 6; ++i) writer.append(kEv, make_sample(0x5000 + i, 1));
  const LogFlushResult r = writer.flush();
  EXPECT_GT(r.records_dropped, 0u);
  EXPECT_EQ(r.records_dropped, writer.spill_dropped());
  EXPECT_LE(writer.pending_bytes(), 120u + 64u);  // bounded (one record slack)

  // When the disk heals, the survivors land; the reader sees the drops as a
  // leading sequence gap — counted, not silent.
  vfs.set_fault_injector(nullptr);
  writer.flush();
  SampleLogReadStatus st;
  const auto read = SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_EQ(read.size() + r.records_dropped, 6u);
  EXPECT_EQ(st.missing_records, r.records_dropped);
}

TEST(SampleLog, DiscardPendingCountsAndConsumesSequence) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  writer.append(kEv, make_sample(1, 0));
  writer.append(kEv, make_sample(2, 0));
  EXPECT_EQ(writer.discard_pending(), 2u);
  EXPECT_EQ(writer.pending_bytes(), 0u);
  // Sequence numbers stay consumed: post-crash records reveal the loss.
  writer.append(kEv, make_sample(3, 0));
  writer.flush();
  SampleLogReadStatus st;
  SampleLogReader::read_checked(vfs, "s", kEv, st);
  EXPECT_EQ(st.valid, 1u);
  EXPECT_EQ(st.missing_records, 2u);
}

/// The lines of a clean n-record log, one string per line.
std::vector<std::string> log_lines(int n) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (int i = 0; i < n; ++i) writer.append(kEv, make_sample(0x7000 + i, i / 4));
  writer.flush();
  const std::string text = *vfs.read(SampleLogWriter::path_for("s", kEv));
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl + 1 - pos));
    pos = nl + 1;
  }
  return lines;
}

SampleLogReadStatus parse_text(const std::string& text, std::vector<LoggedSample>& out) {
  SampleStreamParser parser;
  parser.parse_into(text, sample_line_hash(kEv), out);
  return parser.status();
}

TEST(SeqSet, MergesRunsFromAnyDirection) {
  SeqSet set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_TRUE(set.insert(7));
  EXPECT_TRUE(set.insert(3));
  EXPECT_EQ(set.run_count(), 3u);  // spilled past the two inline runs
  EXPECT_TRUE(set.insert(6));      // bridges 5 and 7
  EXPECT_TRUE(set.insert(4));      // bridges 3 and 5..7
  EXPECT_EQ(set.run_count(), 1u);
  EXPECT_FALSE(set.insert(5));
  EXPECT_EQ(set.distinct(), 5u);
  EXPECT_EQ(set.max(), 7u);
  EXPECT_TRUE(set.insert(~0ull));  // the top seq does not wrap a run
  EXPECT_FALSE(set.insert(~0ull));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.max(), ~0ull);
  EXPECT_EQ(set.distinct(), 7u);
}

TEST(SeqSet, RunInsertIsAllOrNothing) {
  SeqSet set;
  EXPECT_TRUE(set.insert_run(10, 19));
  EXPECT_FALSE(set.insert_run(0, 10));   // touches 10: nothing added
  EXPECT_FALSE(set.insert_run(19, 30));
  EXPECT_FALSE(set.insert_run(12, 14));
  EXPECT_EQ(set.distinct(), 10u);
  EXPECT_TRUE(set.insert_run(0, 9));     // joins from below
  EXPECT_TRUE(set.insert_run(20, 29));   // the append fast path
  EXPECT_EQ(set.run_count(), 1u);
  EXPECT_EQ(set.distinct(), 30u);
}

TEST(SeqSet, MatchesAStdSetUnderSeededInserts) {
  support::Xoshiro256 rng(0x5e95e7);
  for (int round = 0; round < 20; ++round) {
    SeqSet set;
    std::set<std::uint64_t> oracle;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t first = rng.below(300);
      const std::uint64_t last = first + rng.below(4);
      bool fresh = true;
      for (std::uint64_t k = first; k <= last; ++k) fresh = fresh && !oracle.count(k);
      ASSERT_EQ(set.insert_run(first, last), fresh) << round << "/" << i;
      if (fresh)
        for (std::uint64_t k = first; k <= last; ++k) oracle.insert(k);
      ASSERT_EQ(set.distinct(), oracle.size());
      ASSERT_EQ(set.max(), oracle.empty() ? 0 : *oracle.rbegin());
    }
  }
}

TEST(SampleLog, LateRecordFillsItsGap) {
  // Record 2 arrives after 3..5 (a swapped write, or a batch another worker
  // admitted first). Its seq is new, so it counts: the gap closes.
  std::vector<std::string> lines = log_lines(6);
  std::rotate(lines.begin() + 2, lines.begin() + 3, lines.end());
  std::string text;
  for (const std::string& l : lines) text += l;
  std::vector<LoggedSample> out;
  const SampleLogReadStatus st = parse_text(text, out);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out.back().pc, 0x7002u);
  EXPECT_EQ(st.valid, 6u);
  EXPECT_EQ(st.missing_records, 0u);
  EXPECT_EQ(st.duplicate_records, 0u);
  EXPECT_EQ(st.max_seq, 5u);
  EXPECT_TRUE(st.clean());
}

TEST(SampleLog, MissingIsMaxSeqPlusOneMinusDistinct) {
  const std::vector<std::string> lines = log_lines(40);
  support::Xoshiro256 rng(0x9a95);
  for (int round = 0; round < 50; ++round) {
    std::string text;
    std::set<std::uint64_t> kept;
    for (std::uint64_t i = 0; i < lines.size(); ++i) {
      if (rng.below(3) == 0) continue;  // lost
      text += lines[i];
      kept.insert(i);
    }
    std::vector<LoggedSample> out;
    const SampleLogReadStatus st = parse_text(text, out);
    EXPECT_EQ(st.valid, kept.size());
    if (kept.empty()) {
      EXPECT_EQ(st.missing_records, 0u);
      continue;
    }
    EXPECT_EQ(st.max_seq, *kept.rbegin());
    EXPECT_EQ(st.missing_records, st.max_seq + 1 - kept.size());
  }
}

TEST(SampleLog, ReplayedRunCountsAsDuplicates) {
  // Records 0..9, then 4..7 replayed in the middle of the stream.
  const std::vector<std::string> lines = log_lines(10);
  std::string text;
  for (int i = 0; i < 8; ++i) text += lines[static_cast<std::size_t>(i)];
  for (int i = 4; i < 8; ++i) text += lines[static_cast<std::size_t>(i)];
  for (int i = 8; i < 10; ++i) text += lines[static_cast<std::size_t>(i)];
  std::vector<LoggedSample> out;
  const SampleLogReadStatus st = parse_text(text, out);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(st.valid, 10u);
  EXPECT_EQ(st.duplicate_records, 4u);
  EXPECT_EQ(st.missing_records, 0u);
}

TEST(SampleLog, AdmittedChunksInAnyOrderMatchOneRead) {
  // The service's split: each chunk verified on its own, then admitted to
  // the stream in a shuffled order. Counts and the multiset of kept records
  // equal one in-order read of the same bytes.
  std::vector<std::string> lines = log_lines(48);
  lines.insert(lines.begin() + 20, lines.begin() + 10, lines.begin() + 14);  // replay
  lines.erase(lines.begin() + 30);                                          // a loss
  lines[5][3] ^= 0x01;                                                      // damage
  std::string text;
  for (const std::string& l : lines) text += l;
  std::vector<LoggedSample> whole;
  const SampleLogReadStatus want = parse_text(text, whole);

  support::Xoshiro256 rng(0xad417);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::string> chunks;
    for (std::size_t i = 0; i < lines.size();) {
      std::string chunk;
      for (std::uint64_t n = 1 + rng.below(9); n > 0 && i < lines.size(); --n) chunk += lines[i++];
      chunks.push_back(chunk);
    }
    for (std::size_t i = chunks.size(); i > 1; --i) std::swap(chunks[i - 1], chunks[rng.below(i)]);
    SampleStreamParser stream;
    std::multiset<std::uint64_t> got_pcs;
    for (const std::string& chunk : chunks) {
      support::Arena arena;
      support::ArenaVector<LoggedSample> samples(arena);
      support::ArenaVector<std::uint64_t> seqs(arena);
      SampleLineDamage damage;
      decode_sample_lines(chunk, sample_line_hash(kEv), samples, seqs, damage);
      const std::size_t kept = stream.admit({samples.data(), samples.size()},
                                            {seqs.data(), seqs.size()}, damage);
      for (std::size_t k = 0; k < kept; ++k) got_pcs.insert(samples[k].pc);
    }
    std::multiset<std::uint64_t> want_pcs;
    for (const LoggedSample& s : whole) want_pcs.insert(s.pc);
    EXPECT_EQ(got_pcs, want_pcs) << round;
    const SampleLogReadStatus got = stream.status();
    EXPECT_EQ(got.valid, want.valid) << round;
    EXPECT_EQ(got.salvaged, want.salvaged) << round;
    EXPECT_EQ(got.corrupt, want.corrupt) << round;
    EXPECT_EQ(got.discarded_lines, want.discarded_lines) << round;
    EXPECT_EQ(got.discarded_bytes, want.discarded_bytes) << round;
    EXPECT_EQ(got.duplicate_records, want.duplicate_records) << round;
    EXPECT_EQ(got.missing_records, want.missing_records) << round;
    EXPECT_EQ(got.max_seq, want.max_seq) << round;
  }
  EXPECT_EQ(want.duplicate_records, 4u);
  EXPECT_EQ(want.missing_records, 2u);  // the lost record and the damaged one
}

}  // namespace
}  // namespace viprof::core

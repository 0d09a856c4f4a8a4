// Fault injection against the continuous-profiling service: torn wire
// frames, a client disconnecting mid-stream, and ingest-queue overflow.
// The invariant under every fault is the same one the PR 1 storage layer
// established: damage is *counted and survived*, never silently absorbed
// and never fatal — the server keeps serving every other byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/archive.hpp"
#include "service/client.hpp"
#include "service/query.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"

namespace viprof::service {
namespace {

const std::vector<hw::EventKind> kEvents = {hw::EventKind::kGlobalPowerEvents,
                                            hw::EventKind::kBsqCacheReference};

ScenarioConfig small_scenario() {
  ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 1200;
  config.epochs = 10;
  config.methods = 64;
  return config;
}

TEST(ServiceFaults, TornFrameIsCountedAndStreamRecovers) {
  auto scenario = record_scenario(small_scenario());
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "wire/lossy";
  rule.kind = support::FaultKind::kTornWrite;
  rule.skip = 40;  // well into the sample batches
  rule.count = 2;
  fault.add_rule(rule);

  ServerConfig config;
  config.fault = &fault;
  ProfileServer server(config);
  {
    auto conn = server.connect("lossy");
    ReplayClient client(scenario->vfs(), "lossy", *conn, ReplayOptions{32, &fault, {}});
    EXPECT_TRUE(client.run());  // the client is oblivious to wire damage
  }
  server.drain();

  const SessionStats stats = server.session("lossy")->stats();
  EXPECT_EQ(fault.stats().torn_writes, 2u);
  EXPECT_GE(stats.torn_frames, 2u);
  EXPECT_TRUE(stats.ended);  // kEndStream still made it through
  // The batches after the damage were ingested: most of the stream lands.
  EXPECT_GT(stats.records_ingested,
            2u * small_scenario().samples_per_event * 8 / 10);
  EXPECT_LT(stats.records_ingested, 2u * small_scenario().samples_per_event);
  EXPECT_GT(server.telemetry().snapshot().counter("service.frames.torn"), 0u);
  // The surviving aggregate still renders.
  EXPECT_NE(server.session_report("lossy", 10, kEvents).find("Image name"),
            std::string::npos);
}

TEST(ServiceFaults, RepeatedTornFramesInOneStreamEachResync) {
  // Not one unlucky frame but a rough patch: five consecutive torn writes
  // in a single stream. The decoder must resync after every one of them —
  // the frames behind the damage keep landing and kEndStream still closes
  // the session cleanly.
  auto scenario = record_scenario(small_scenario());
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "wire/rough";
  rule.kind = support::FaultKind::kTornWrite;
  rule.skip = 40;
  rule.count = 5;
  fault.add_rule(rule);

  ServerConfig config;
  config.fault = &fault;
  ProfileServer server(config);
  {
    auto conn = server.connect("rough");
    ReplayClient client(scenario->vfs(), "rough", *conn, ReplayOptions{32, &fault, {}});
    EXPECT_TRUE(client.run());
  }
  server.drain();

  const SessionStats stats = server.session("rough")->stats();
  EXPECT_EQ(fault.stats().torn_writes, 5u);
  EXPECT_GE(stats.torn_frames, 5u);
  EXPECT_TRUE(stats.ended);
  // Five small batches were damaged; the rest of the stream survived.
  EXPECT_GT(stats.records_ingested,
            2u * small_scenario().samples_per_event * 7 / 10);
  EXPECT_LT(stats.records_ingested, 2u * small_scenario().samples_per_event);
  EXPECT_GE(server.telemetry().snapshot().counter("service.frames.torn"), 5u);
  EXPECT_NE(server.session_report("rough", 10, kEvents).find("Image name"),
            std::string::npos);
}

TEST(ServiceFaults, LostFrameIsSkippedEntirely) {
  auto scenario = record_scenario(small_scenario());
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "wire/drop";
  rule.kind = support::FaultKind::kWriteError;  // the whole frame vanishes
  rule.skip = 50;
  rule.count = 1;
  fault.add_rule(rule);

  ServerConfig config;
  config.fault = &fault;
  ProfileServer server(config);
  {
    auto conn = server.connect("drop");
    ReplayClient client(scenario->vfs(), "drop", *conn, ReplayOptions{32, &fault, {}});
    EXPECT_TRUE(client.run());
  }
  server.drain();

  // A cleanly lost frame leaves no half-decoded bytes behind: the decoder
  // sees a gap, not garbage, and every later frame still parses.
  const SessionStats stats = server.session("drop")->stats();
  EXPECT_TRUE(stats.ended);
  EXPECT_LT(stats.records_ingested, 2u * small_scenario().samples_per_event);
}

TEST(ServiceFaults, ClientDisconnectMidStream) {
  auto scenario = record_scenario(small_scenario());
  support::FaultInjector fault;
  fault.schedule_kill(support::FaultComponent::kClient, 30);  // 30 frames in

  ProfileServer server;
  std::uint64_t frames_before_death = 0;
  {
    auto conn = server.connect("flaky");
    ReplayClient client(scenario->vfs(), "flaky", *conn, ReplayOptions{32, &fault, {}});
    EXPECT_FALSE(client.run());  // died before kEndStream
    EXPECT_TRUE(client.disconnected());
    frames_before_death = client.frames_sent();
  }  // connection closes here: the server observes the disconnect
  server.drain();

  EXPECT_EQ(frames_before_death, 30u);
  EXPECT_EQ(fault.stats().kills, 1u);
  const SessionStats stats = server.session("flaky")->stats();
  EXPECT_FALSE(stats.ended);
  EXPECT_GT(stats.records_ingested, 0u);  // the prefix landed and aggregated
  EXPECT_GT(server.telemetry().snapshot().counter("service.disconnects"), 0u);
  // The orphaned session still answers queries.
  EXPECT_NE(server.query("sessions").find("streaming"), std::string::npos);

  // A reconnecting client resumes the same session id cleanly.
  {
    auto conn = server.connect("flaky-retry");
    ReplayClient client(scenario->vfs(), "flaky", *conn, ReplayOptions{32, nullptr, {}});
    EXPECT_TRUE(client.run());
  }
  server.drain();
  EXPECT_TRUE(server.session("flaky")->stats().ended);
}

TEST(ServiceFaults, QueueOverflowDropsAreCounted) {
  auto scenario = record_scenario(small_scenario());
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "service/queue/congested";
  rule.kind = support::FaultKind::kWriteError;  // forced overflow
  rule.skip = 4;
  rule.count = 3;
  fault.add_rule(rule);

  ServerConfig config;
  config.fault = &fault;
  ProfileServer server(config);
  {
    auto conn = server.connect("congested");
    ReplayClient client(scenario->vfs(), "congested", *conn, ReplayOptions{64, &fault, {}});
    EXPECT_TRUE(client.run());
  }
  server.drain();

  const SessionStats stats = server.session("congested")->stats();
  EXPECT_EQ(stats.batches_dropped, 3u);
  EXPECT_GT(stats.records_dropped, 0u);
  // Drops never stall the pipeline: everything enqueued was applied.
  EXPECT_EQ(stats.batches_applied, stats.batches_enqueued);
  EXPECT_TRUE(stats.ended);
  EXPECT_EQ(stats.records_ingested + stats.records_dropped,
            2u * small_scenario().samples_per_event);
  const auto snap = server.telemetry().snapshot();
  EXPECT_EQ(snap.counter("service.batches.dropped"), 3u);
  EXPECT_EQ(snap.counter("service.records.dropped"), stats.records_dropped);
}

TEST(ServiceFaults, DroppedBatchSeqsAreSeenSoAReplayCountsAsDuplicates) {
  // A refused batch is parsed on the receiver: its records are counted as
  // dropped and its seqs marked seen, so replaying the whole stream adds
  // nothing and counts every record as a duplicate.
  auto scenario = record_scenario(small_scenario());
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "service/queue/replayed";
  rule.kind = support::FaultKind::kWriteError;
  rule.skip = 2;
  rule.count = 4;
  fault.add_rule(rule);
  ServerConfig config;
  config.fault = &fault;
  ProfileServer server(config);
  for (const char* client_name : {"first", "again"}) {
    auto conn = server.connect(client_name);
    ReplayClient client(scenario->vfs(), "replayed", *conn, ReplayOptions{64, nullptr, {}});
    EXPECT_TRUE(client.run());
    server.drain();
  }

  const SessionStats stats = server.session("replayed")->stats();
  EXPECT_EQ(stats.batches_dropped, 4u);
  EXPECT_GT(stats.records_dropped, 0u);
  const std::uint64_t per_event = small_scenario().samples_per_event;
  EXPECT_EQ(stats.records_ingested + stats.records_dropped, 2u * per_event);
  for (const hw::EventKind event : core::kReportEvents) {
    const core::SampleLogReadStatus st = server.session("replayed")->read_status(event);
    EXPECT_EQ(st.valid, per_event) << hw::to_string(event);
    EXPECT_EQ(st.duplicate_records, per_event) << hw::to_string(event);
    EXPECT_EQ(st.missing_records, 0u) << hw::to_string(event);
  }
}

// --- Batched zero-copy decode path (DESIGN.md §14) --------------------------
//
// The server now decodes through FrameDecoder::next_view and parses sample
// payloads straight out of the wire buffer into per-batch arenas. Salvage
// must be *path-invariant*: the view path skips exactly the frames the
// per-frame copy path skips, and the striped apply path aggregates exactly
// what a single stripe would — damage never changes with the decode route.

TEST(ServiceFaults, BatchedViewDecodeSalvagesExactlyLikePerFrameDecode) {
  // One damaged byte stream, decoded twice: through next(Frame&) (the
  // per-frame copy path) and through next_view (the batch path the server
  // uses). Same surviving frames, same tears, same skipped bytes.
  std::string stream;
  for (int i = 0; i < 12; ++i) {
    std::string frame = encode_frame(
        FrameType::kSampleBatch, "batch payload " + std::to_string(i));
    if (i % 4 == 1) frame.resize(frame.size() / 2);        // torn mid-frame
    if (i % 4 == 3) frame[frame.size() - 1] ^= 0x20;       // crc damage
    stream += frame;
  }
  stream += encode_frame(FrameType::kEndStream, "");

  FrameDecoder per_frame;
  per_frame.feed(stream);
  std::vector<std::string> copied;
  Frame f;
  while (per_frame.next(f)) copied.push_back(f.payload);

  FrameDecoder batched;
  batched.feed(stream);
  std::vector<std::string> viewed;
  FrameView v;
  while (batched.next_view(v)) viewed.emplace_back(v.payload);

  EXPECT_EQ(viewed, copied);
  EXPECT_EQ(batched.torn_frames(), per_frame.torn_frames());
  EXPECT_EQ(batched.skipped_bytes(), per_frame.skipped_bytes());
  EXPECT_EQ(batched.buffered_bytes(), per_frame.buffered_bytes());
}

TEST(ServiceFaults, TornStreamSalvageIsStripeAndThreadInvariant) {
  // The same deterministic torn-write schedule replayed against a 1-thread/
  // 1-stripe server and a 4-thread/4-stripe server: the frames lost are
  // decided by the wire schedule, not the ingest topology, so the salvaged
  // aggregate — including every unresolved.* degradation bin — must render
  // byte-identically.
  auto scenario = record_scenario(small_scenario());

  auto run = [&](std::size_t threads, SessionStats* stats) {
    support::FaultInjector fault;
    support::FaultRule rule;
    rule.path_prefix = "wire/invariant";
    rule.kind = support::FaultKind::kTornWrite;
    rule.skip = 40;
    rule.count = 4;
    fault.add_rule(rule);

    ServerConfig config;
    config.fault = &fault;
    config.ingest_threads = threads;
    ProfileServer server(config);
    {
      auto conn = server.connect("invariant");
      ReplayClient client(scenario->vfs(), "invariant", *conn,
                          ReplayOptions{32, &fault, {}});
      EXPECT_TRUE(client.run());
    }
    server.drain();
    *stats = server.session("invariant")->stats();
    return server.session_report("invariant", 20, kEvents);
  };

  SessionStats serial_stats, striped_stats;
  const std::string serial = run(1, &serial_stats);
  const std::string striped = run(4, &striped_stats);

  EXPECT_EQ(striped, serial);
  EXPECT_EQ(striped_stats.records_ingested, serial_stats.records_ingested);
  EXPECT_EQ(striped_stats.torn_frames, serial_stats.torn_frames);
  EXPECT_GE(striped_stats.torn_frames, 4u);
  EXPECT_TRUE(striped_stats.ended);
}

TEST(ServiceFaults, ClientKillMidStreamThroughStripedBatchPath) {
  // The PR 2 kill test, re-run against the striped/batched pipeline: the
  // prefix that reached the wire before the kill aggregates identically
  // whether one stripe or four absorbed it.
  auto scenario = record_scenario(small_scenario());

  auto run = [&](std::size_t threads, SessionStats* stats) {
    support::FaultInjector fault;
    fault.schedule_kill(support::FaultComponent::kClient, 30);  // past batch #1
    ServerConfig config;
    config.ingest_threads = threads;
    ProfileServer server(config);
    {
      auto conn = server.connect("killed");
      ReplayClient client(scenario->vfs(), "killed", *conn,
                          ReplayOptions{32, &fault, {}});
      EXPECT_FALSE(client.run());  // died before kEndStream
    }
    server.drain();
    *stats = server.session("killed")->stats();
    return server.session_report("killed", 20, kEvents);
  };

  SessionStats serial_stats, striped_stats;
  const std::string serial = run(1, &serial_stats);
  const std::string striped = run(4, &striped_stats);

  EXPECT_EQ(striped, serial);
  EXPECT_EQ(striped_stats.records_ingested, serial_stats.records_ingested);
  EXPECT_GT(striped_stats.records_ingested, 0u);
  EXPECT_FALSE(striped_stats.ended);
}

// A crash in the middle of `viprof_serve --export` must never leave a
// reader-visible half-written snapshot: the export publishes every file
// via temp-write + rename, so the worst a kill can leave behind is a stale
// *.tmp next to the previous, fully intact version.
TEST(ServiceFaults, ExportCrashMidPublishLeavesOldSnapshotIntact) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "viprof_service_faults_export";
  fs::remove_all(dir);

  auto scenario = record_scenario(small_scenario());
  ProfileServer server;
  {
    auto conn = server.connect("s");
    ReplayClient client(scenario->vfs(), "s", *conn, ReplayOptions{128, nullptr, {}});
    ASSERT_TRUE(client.run());
  }
  server.drain();
  ASSERT_TRUE(server.export_state(dir.string(), 10));

  const auto read_file = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string v1 = read_file(dir / "service.snap");
  ASSERT_TRUE(ServiceSnapshot::parse(v1).has_value());

  // Simulate the kill landing between temp-write and rename: the torn temp
  // is on disk, the publish never happened.
  {
    std::ofstream torn(dir / "service.snap.tmp", std::ios::binary);
    torn << v1.substr(0, v1.size() / 3) << "XXXX torn";
  }
  const std::string after_crash = read_file(dir / "service.snap");
  EXPECT_EQ(after_crash, v1);  // readers still see the old snapshot, whole
  ASSERT_TRUE(ServiceSnapshot::parse(after_crash).has_value());

  // The next export publishes over both the snapshot and the stale temp.
  ASSERT_TRUE(server.export_state(dir.string(), 10));
  const std::string v2 = read_file(dir / "service.snap");
  ASSERT_TRUE(ServiceSnapshot::parse(v2).has_value());
  EXPECT_FALSE(fs::exists(dir / "service.snap.tmp"));

  fs::remove_all(dir);
}

TEST(ServiceFaults, DamagedArchiveManifestIsSkippedAndCountedNotFatal) {
  // The server builds its resolver from the manifest a client streamed, on
  // a pool worker. Lines that do not parse, or name an image no image line
  // defines, used to throw std::invalid_argument (a hex field "zz") or trip
  // a check (a symbol of an undefined image) there and take the process
  // down. Now each is skipped and counted, and since these lines add
  // nothing the clean manifest has, every answer equals the clean one.
  const auto scenario = record_scenario(small_scenario());
  os::Vfs damaged = scenario->vfs();
  const core::ArchiveResolver clean(damaged, "archive", true, false);
  ASSERT_EQ(clean.malformed_lines(), 0u);
  const std::string undefined = std::to_string(clean.image_count() + 3);
  const std::vector<std::string> bad = {
      "vma 1 zz 10 0 0",
      "sym " + undefined + " 10 4 foo",
      "sym 0 0x10 4x foo",
      "vma 1 0x10 0x20 " + undefined + " 0",
      "image 4294967296 exec 0 huge",
      "image 7 exe 0 bad-kind",
      "proc -1 negative",
      "kernel 0 0x10",
      "hyp " + undefined + " 0x10 16",
      "reg 1 zz",
      "no such tag",
  };
  std::string manifest = *damaged.read("archive/manifest");
  for (const std::string& line : bad) manifest += line + "\n";
  damaged.write("archive/manifest", manifest);

  const auto serve = [](const os::Vfs& world, const std::string& id, ProfileServer& server) {
    auto conn = server.connect(id);
    ReplayClient client(world, id, *conn, ReplayOptions{64, nullptr, {}});
    EXPECT_TRUE(client.run());
    server.drain();
  };
  ProfileServer clean_server, damaged_server;
  serve(scenario->vfs(), "s", clean_server);
  serve(damaged, "s", damaged_server);

  EXPECT_EQ(damaged_server.telemetry().snapshot().counter("service.archive.malformed_lines"),
            bad.size());
  for (const char* q : {"top 20 --session s", "since-epoch 3", "arcs 10", "memprof 10"})
    EXPECT_EQ(damaged_server.query(q), clean_server.query(q)) << q;
  EXPECT_TRUE(damaged_server.session("s")->stats().ended);
}

}  // namespace
}  // namespace viprof::service

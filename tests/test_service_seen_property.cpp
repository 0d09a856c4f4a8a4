// Property: the service's seen-sequence dedup commutes (DESIGN.md §10).
//
// Batches are parsed on the ingest workers and admitted to their event's
// seen-sequence set in whatever order the workers reach them. A record
// counts iff its seq is new, so a stream whose logs carry replayed runs,
// reordered lines, torn lines and lost records must give, at 1, 2, 4 and 8
// workers and any batch size:
//   * the report and snapshot bytes of the serial (one-worker) ingest,
//   * the report offline viprof_report renders over the same files,
//   * per event, exactly the SampleLogReadStatus counts SampleLogReader
//     reports over the same lines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/sample_log.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace viprof::service {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    nl = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl;
  }
  return lines;
}

/// Seeded damage of one log, every line kept newline-terminated (so the
/// client sends exactly the bytes the offline reader sees).
std::string mutate_log(const std::string& text, support::Xoshiro256& rng) {
  std::vector<std::string> lines = split_lines(text);
  for (int round = 0; round < 24 && lines.size() > 8; ++round) {
    const std::size_t i = rng.below(lines.size() - 4);
    switch (rng.below(4)) {
      case 0: {  // replay: a run that already landed, again, further on
        const std::size_t len = 1 + rng.below(6);
        const std::vector<std::string> run(lines.begin() + static_cast<std::ptrdiff_t>(i),
                                           lines.begin() + static_cast<std::ptrdiff_t>(
                                                               std::min(i + len, lines.size())));
        const std::size_t at = i + rng.below(lines.size() - i);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), run.begin(), run.end());
        break;
      }
      case 1:  // reorder: two lines far apart swap places
        std::swap(lines[i], lines[rng.below(lines.size())]);
        break;
      case 2:  // torn in place: the line loses its tail, keeps its newline
        lines[i] = lines[i].substr(0, rng.below(lines[i].size())) + "\n";
        break;
      default:  // lost
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
        break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

void expect_same_counts(const core::SampleLogReadStatus& got,
                        const core::SampleLogReadStatus& want, const std::string& where) {
  EXPECT_EQ(got.corrupt, want.corrupt) << where;
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.salvaged, want.salvaged) << where;
  EXPECT_EQ(got.discarded_lines, want.discarded_lines) << where;
  EXPECT_EQ(got.discarded_bytes, want.discarded_bytes) << where;
  EXPECT_EQ(got.duplicate_records, want.duplicate_records) << where;
  EXPECT_EQ(got.missing_records, want.missing_records) << where;
  EXPECT_EQ(got.max_seq, want.max_seq) << where;
}

TEST(IngestSeenProperty, AnyInterleavingMatchesSerialAndOfflineReader) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ScenarioConfig config;
    config.vms = 2;
    config.samples_per_event = 1'200;
    config.epochs = 6;
    config.methods = 48;
    config.seed = 0x5ee0 + seed;
    const auto scenario = record_scenario(config);
    os::Vfs world = scenario->vfs();
    support::Xoshiro256 rng(seed * 0x9e3779b9);
    for (const hw::EventKind event : core::kReportEvents) {
      const std::string path = core::SampleLogWriter::path_for("samples", event);
      const std::string damaged = mutate_log(*world.read(path), rng);
      world.remove(path);
      world.write(path, damaged);
    }

    const std::string offline = offline_render(world, core::kReportEvents, 40);
    std::vector<core::SampleLogReadStatus> offline_status;
    for (const hw::EventKind event : core::kReportEvents) {
      core::SampleLogReader::read_checked(world, "samples", event,
                                          offline_status.emplace_back());
    }
    ASSERT_GT(offline_status[0].duplicate_records, 0u) << "seed " << seed;

    std::string serial_snapshot;
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const std::string where =
          "seed " + std::to_string(seed) + " workers " + std::to_string(workers);
      ServerConfig server_config;
      server_config.ingest_threads = workers;
      ProfileServer server(server_config);
      {
        auto conn = server.connect("prop");
        ReplayClient client(world, "prop", *conn,
                            ReplayOptions{8 + rng.below(120), nullptr, {}});
        ASSERT_TRUE(client.run()) << where;
      }
      server.drain();

      EXPECT_EQ(server.session_report("prop", 40, core::kReportEvents), offline) << where;
      if (workers == 1) serial_snapshot = server.snapshot();
      EXPECT_EQ(server.snapshot(), serial_snapshot) << where;
      const std::shared_ptr<ServerSession> session = server.session("prop");
      for (std::size_t e = 0; e < core::kReportEvents.size(); ++e) {
        expect_same_counts(session->read_status(core::kReportEvents[e]), offline_status[e],
                           where + " event " + hw::to_string(core::kReportEvents[e]));
      }
      EXPECT_EQ(session->stats().records_ingested,
                offline_status[0].valid + offline_status[1].valid)
          << where;
    }
  }
}

}  // namespace
}  // namespace viprof::service

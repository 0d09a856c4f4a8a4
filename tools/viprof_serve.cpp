// viprof_serve — the continuous-profiling service, driven to completion
// over recorded sessions (the oprofiled-as-a-service analogue,
// DESIGN.md §10).
//
// Each --in DIR is one recorded session (the layout viprof_report reads);
// its basename becomes the session id and a dedicated client thread
// replays it over a loopback connection — registrations, world files and
// checksummed sample batches — while the shared ingest pool aggregates
// online. After the streams drain, queries run against the live
// aggregates, --verify-offline checks the online render byte-for-byte
// against the offline viprof_report aggregation, and --export writes the
// per-session reports, the service snapshot (for viprof_query) and the
// server's own telemetry.
//
// Exit status: 0 ok, 1 online/offline verification mismatch, 2 load
// errors, 3 bad usage.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "os/vfs.hpp"
#include "service/client.hpp"
#include "service/query.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "support/arg_scan.hpp"

namespace {

using namespace viprof;

constexpr const char* kUsage =
    "usage: viprof_serve [--in DIR]... [--demo] [--threads N] [--queue N]\n"
    "                    [--policy backpressure|drop] [--batch N]\n"
    "                    [--query CMD]... [--verify-offline] [--export DIR]\n"
    "                    [--top N]\n"
    "  --in DIR          replay a recorded session directory (repeatable;\n"
    "                    the basename becomes the session id)\n"
    "  --demo            replay a built-in two-VM recorded scenario\n"
    "  --threads N       ingest worker threads (default 2)\n"
    "  --queue N         per-session batch queue capacity (default 64)\n"
    "  --policy P        overload policy: backpressure (default) or drop\n"
    "  --batch N         sample records per wire batch (default 256)\n"
    "  --query CMD       run a query after ingest (repeatable), e.g.\n"
    "                    'sessions', 'top 10', 'since-epoch 4', 'arcs 5',\n"
    "                    'stats [--json]', 'trace' (grammar: DESIGN.md §10;\n"
    "                    a malformed one exits 3 before any ingest)\n"
    "  --verify-offline  check each online render against viprof_report's\n"
    "                    offline aggregation (exit 1 on any mismatch)\n"
    "  --export DIR      write per-session reports, service.snap and\n"
    "                    metrics.json\n";

std::string session_id_from(const std::string& dir) {
  std::string trimmed = dir;
  while (trimmed.size() > 1 && trimmed.back() == '/') trimmed.pop_back();
  const std::string name = std::filesystem::path(trimmed).filename().string();
  return name.empty() ? trimmed : name;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> in_dirs;
  std::vector<std::string> queries;
  bool demo = false;
  bool verify_offline = false;
  std::string export_dir;
  std::size_t top = 20;
  std::size_t batch_records = 256;
  service::ServerConfig config;

  support::ArgScan args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--in")) in_dirs.emplace_back(args.value());
    else if (args.is("--demo")) demo = true;
    else if (args.is("--threads")) config.ingest_threads = args.value_u64();
    else if (args.is("--queue")) config.queue_capacity = args.value_u64();
    else if (args.is("--policy")) {
      const std::string policy = args.value();
      if (policy == "backpressure") config.policy = service::OverloadPolicy::kBackpressure;
      else if (policy == "drop") config.policy = service::OverloadPolicy::kDropNewest;
      else args.fail();
    }
    else if (args.is("--batch")) batch_records = args.value_u64();
    else if (args.is("--query")) {
      queries.emplace_back(args.value());
      const auto parsed = service::parse_query(queries.back());
      if (const auto* error = std::get_if<service::QueryError>(&parsed)) {
        std::fprintf(stderr, "viprof_serve: --query %s", error->message().c_str());
        args.fail();
      }
    }
    else if (args.is("--verify-offline")) verify_offline = true;
    else if (args.is("--export")) export_dir = args.value();
    else if (args.is("--top")) top = args.value_u64();
    else args.fail_unknown();
  }
  if (in_dirs.empty() && !demo) args.fail();

  // Load every recorded world up front (the threads borrow them).
  struct Source {
    std::string id;
    std::unique_ptr<os::Vfs> world;
    std::unique_ptr<service::RecordedScenario> demo_scenario;  // keeps vfs alive
  };
  std::vector<Source> sources;
  for (const std::string& dir : in_dirs) {
    Source src;
    src.id = session_id_from(dir);
    src.world = std::make_unique<os::Vfs>();
    src.world->import_from_directory(dir);
    if (!src.world->exists("archive/manifest")) {
      std::fprintf(stderr, "viprof_serve: %s has no archive/manifest\n", dir.c_str());
      return 2;
    }
    sources.push_back(std::move(src));
  }
  if (demo) {
    Source src;
    src.id = "demo";
    src.demo_scenario = service::record_scenario();
    sources.push_back(std::move(src));
  }

  service::ProfileServer server(config);
  {
    std::vector<std::thread> clients;
    clients.reserve(sources.size());
    for (Source& src : sources) {
      clients.emplace_back([&server, &src, batch_records] {
        const os::Vfs& world =
            src.world ? *src.world : src.demo_scenario->vfs();
        auto conn = server.connect(src.id);
        service::ReplayClient client(world, src.id, *conn,
                                     service::ReplayOptions{batch_records, nullptr, {}});
        client.run();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.drain();

  std::printf("%s", server.query("sessions").c_str());
  for (const std::string& q : queries) {
    std::printf("\n-- query: %s --\n%s", q.c_str(), server.query(q).c_str());
  }

  int status = 0;
  if (verify_offline) {
    const std::vector<hw::EventKind>& events = core::kReportEvents;
    for (const Source& src : sources) {
      const os::Vfs& world = src.world ? *src.world : src.demo_scenario->vfs();
      const std::string online = server.session_report(src.id, top, events);
      const std::string offline = service::offline_render(world, events, top);
      if (online == offline) {
        std::printf("\nverify %s: online aggregate identical to offline report\n",
                    src.id.c_str());
      } else {
        std::fprintf(stderr, "\nverify %s: MISMATCH\n-- online --\n%s-- offline --\n%s",
                     src.id.c_str(), online.c_str(), offline.c_str());
        status = 1;
      }
    }
  }

  if (!export_dir.empty()) {
    server.export_state(export_dir, top);
    std::printf("\nservice state exported to %s (query with viprof_query)\n",
                export_dir.c_str());
  }
  return status;
}

// viprof_stat — dump, diff and snapshot the profiler's own telemetry
// registry from an exported session tree (the vmstat/opcontrol --status
// analogue for the profiler's self-observability layer, DESIGN.md §8).
//
//   viprof_stat dump --in DIR|FILE [--json] [--prefix P]
//   viprof_stat diff --before DIR|FILE --after DIR|FILE [--prefix P]
//   viprof_stat snapshot --in DIR|FILE --out FILE
//   viprof_stat trace-merge --in DIR|FILE [--in ...] [--out FILE]
//   viprof_stat contention --in DIR|FILE [--in ...] [--top N]
//
// DIR|FILE is either a metrics.json written by Session::export_telemetry or
// an exported session directory (the telemetry subtree is located inside).
// `dump` renders the registry as fixed-width tables (--json re-emits
// canonical JSON instead); `diff` prints metric-by-metric deltas between
// two snapshots (CI trajectory checks); `snapshot` copies a validated,
// canonicalised snapshot to FILE for later diffing.
//
// `trace-merge` folds several Chrome trace rings (per-shard trace.json
// files from a fleet export, or any mix of server/Machine traces) into one
// trace: each input becomes a Chrome "process" (pid = input order, named
// after its source), worker threads stay distinct tids, and timestamps are
// rebased to the earliest event so the shards line up on one axis. A
// directory input uses its trace.json, or — fleet-export layout — every
// <subdir>/trace.json beneath it, sorted.
//
// `contention` ranks locks by total wait: every lock.<name>.wait_ns
// histogram across the inputs is folded with HistogramSummary::merged (a
// bucket-wise sum, so the percentiles are those of one histogram that saw
// every shard's waits) and rendered worst-first with its acquired/contended
// counters. Directory
// inputs locate metrics.json the same way trace-merge locates traces.
//
// Exit status: 0 on success, 1 when `diff` found differences, 2 on load
// errors (including no traces / no lock telemetry found), 3 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/arg_scan.hpp"
#include "support/format.hpp"
#include "support/telemetry.hpp"

namespace {

using viprof::support::ChromeTrace;
using viprof::support::HistogramSummary;
using viprof::support::TelemetrySnapshot;

constexpr const char* kUsage =
    "usage: viprof_stat dump --in DIR|FILE [--json] [--prefix P]\n"
    "       viprof_stat diff --before DIR|FILE --after DIR|FILE [--prefix P]\n"
    "       viprof_stat snapshot --in DIR|FILE --out FILE\n"
    "       viprof_stat trace-merge --in DIR|FILE [--in ...] [--out FILE]\n"
    "       viprof_stat contention --in DIR|FILE [--in ...] [--top N]\n"
    "DIR|FILE: a metrics.json (trace-merge: trace.json), or an exported\n"
    "directory containing one; trace-merge/contention also accept a fleet\n"
    "export root and use every <shard>/trace.json|metrics.json under it.\n";

/// A metrics.json path: the argument itself, or the conventional locations
/// inside an exported session directory.
std::string locate_metrics(const std::string& arg) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(arg)) return arg;
  for (const char* sub :
       {"/archive/telemetry/metrics.json", "/telemetry/metrics.json", "/metrics.json"}) {
    if (fs::is_regular_file(arg + sub)) return arg + sub;
  }
  return arg;  // fall through to the load error below
}

TelemetrySnapshot load_or_die(const std::string& arg) {
  const std::string path = locate_metrics(arg);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "viprof_stat: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  auto snap = TelemetrySnapshot::from_json(contents.str());
  if (!snap) {
    std::fprintf(stderr, "viprof_stat: %s is not a telemetry snapshot\n", path.c_str());
    std::exit(2);
  }
  return *std::move(snap);
}

std::string slurp_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "viprof_stat: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Expands one --in argument into (label, path) pairs for `leaf` files
/// ("trace.json" / "metrics.json"). A file names itself (labelled by its
/// parent directory); a directory contributes its own leaf when present,
/// and otherwise every <subdir>/leaf beneath it in sorted order — the
/// fleet-export layout, where the subdirs are the shards.
std::vector<std::pair<std::string, std::string>> locate_leaves(
    const std::string& arg, const char* leaf) {
  namespace fs = std::filesystem;
  const auto label_for = [](const fs::path& p) {
    const std::string dir = p.parent_path().filename().string();
    return dir.empty() ? p.filename().string() : dir;
  };
  std::vector<std::pair<std::string, std::string>> out;
  if (!fs::is_directory(arg)) {
    out.emplace_back(label_for(fs::path(arg)), arg);
    return out;
  }
  const std::string candidates[] = {"/" + std::string(leaf),
                                    "/archive/telemetry/" + std::string(leaf)};
  for (const std::string& sub : candidates) {
    if (fs::is_regular_file(arg + sub)) {
      out.emplace_back(label_for(fs::path(arg + sub)), arg + sub);
      return out;
    }
  }
  std::vector<fs::path> subs;
  for (const auto& entry : fs::directory_iterator(arg))
    if (entry.is_directory() && fs::is_regular_file(entry.path() / leaf))
      subs.push_back(entry.path() / leaf);
  std::sort(subs.begin(), subs.end());
  for (const fs::path& p : subs) out.emplace_back(label_for(p), p.string());
  return out;
}

/// Restricts a snapshot to metrics whose name starts with `prefix`.
TelemetrySnapshot filtered(TelemetrySnapshot snap, const std::string& prefix) {
  if (prefix.empty()) return snap;
  auto keep = [&prefix](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  std::erase_if(snap.counters, [&](const auto& kv) { return !keep(kv.first); });
  std::erase_if(snap.gauges, [&](const auto& kv) { return !keep(kv.first); });
  std::erase_if(snap.histograms, [&](const auto& kv) { return !keep(kv.first); });
  return snap;
}

}  // namespace

int main(int argc, char** argv) {
  viprof::support::ArgScan args(argc, argv, kUsage);
  if (!args.next()) args.fail();
  const std::string cmd = args.arg();

  std::vector<std::string> in_args;
  std::string before_arg, after_arg, out_path, prefix;
  std::size_t top = 20;
  bool as_json = false;
  while (args.next()) {
    if (args.is("--in")) in_args.push_back(args.value());
    else if (args.is("--before")) before_arg = args.value();
    else if (args.is("--after")) after_arg = args.value();
    else if (args.is("--out")) out_path = args.value();
    else if (args.is("--prefix")) prefix = args.value();
    else if (args.is("--top")) top = args.value_u64();
    else if (args.is("--json")) as_json = true;
    else args.fail_unknown();
  }
  const std::string in_arg = in_args.empty() ? "" : in_args.front();

  if (cmd == "dump") {
    if (in_arg.empty()) args.fail();
    const TelemetrySnapshot snap = filtered(load_or_die(in_arg), prefix);
    if (as_json) std::fputs(snap.to_json().c_str(), stdout);
    else std::fputs(snap.render_text().c_str(), stdout);
    return 0;
  }

  if (cmd == "diff") {
    if (before_arg.empty() || after_arg.empty()) args.fail();
    const TelemetrySnapshot before = filtered(load_or_die(before_arg), prefix);
    const TelemetrySnapshot after = filtered(load_or_die(after_arg), prefix);
    const std::string diff = TelemetrySnapshot::render_diff(before, after);
    std::fputs(diff.c_str(), stdout);
    return diff == "(no differences)\n" ? 0 : 1;
  }

  if (cmd == "snapshot") {
    if (in_arg.empty() || out_path.empty()) args.fail();
    const TelemetrySnapshot snap = load_or_die(in_arg);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "viprof_stat: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << snap.to_json();
    std::printf("snapshot written to %s\n", out_path.c_str());
    return 0;
  }

  if (cmd == "trace-merge") {
    if (in_args.empty()) args.fail();
    std::vector<std::pair<std::string, ChromeTrace>> inputs;
    for (const std::string& arg : in_args) {
      for (const auto& [label, path] : locate_leaves(arg, "trace.json")) {
        auto trace = viprof::support::parse_chrome_trace(slurp_or_die(path));
        if (!trace) {
          std::fprintf(stderr, "viprof_stat: %s is not a Chrome trace\n",
                       path.c_str());
          return 2;
        }
        inputs.emplace_back(label, std::move(*trace));
      }
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "viprof_stat: no trace.json found under the inputs\n");
      return 2;
    }
    const std::string merged = viprof::support::merge_chrome_traces(inputs);
    if (out_path.empty()) {
      std::fputs(merged.c_str(), stdout);
      return 0;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "viprof_stat: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << merged;
    std::printf("merged %zu traces into %s\n", inputs.size(), out_path.c_str());
    return 0;
  }

  if (cmd == "contention") {
    if (in_args.empty()) args.fail();
    // Fold every lock.<name>.wait_ns histogram (and its acquired/contended
    // counters) across the inputs, then rank by total wait.
    struct LockRow {
      HistogramSummary wait;
      std::uint64_t acquired = 0;
      std::uint64_t contended = 0;
    };
    std::map<std::string, LockRow> locks;
    for (const std::string& arg : in_args) {
      for (const auto& [label, path] : locate_leaves(arg, "metrics.json")) {
        const TelemetrySnapshot snap = load_or_die(path);
        for (const auto& [name, hist] : snap.histograms) {
          constexpr const char* kPrefix = "lock.";
          constexpr const char* kSuffix = ".wait_ns";
          if (name.size() <= 5 + 8) continue;
          if (name.compare(0, 5, kPrefix) != 0) continue;
          if (name.compare(name.size() - 8, 8, kSuffix) != 0) continue;
          const std::string lock = name.substr(5, name.size() - 5 - 8);
          LockRow& row = locks[lock];
          row.wait = HistogramSummary::merged(row.wait, hist);
          row.acquired += snap.counter("lock." + lock + ".acquired");
          row.contended += snap.counter("lock." + lock + ".contended");
        }
      }
    }
    if (locks.empty()) {
      std::fprintf(stderr, "viprof_stat: no lock telemetry in the inputs\n");
      return 2;
    }
    std::vector<std::pair<std::string, LockRow>> ranked(locks.begin(), locks.end());
    std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second.wait.sum > b.second.wait.sum;
    });
    if (ranked.size() > top) ranked.resize(top);
    viprof::support::TextTable table({"Lock", "Acquired", "Contended", "Waits",
                                      "Total us", "Mean ns", "p50 ns", "p90 ns",
                                      "p99 ns", "Max ns"});
    for (const auto& [lock, row] : ranked) {
      table.cell(lock).cell(row.acquired).cell(row.contended).cell(row.wait.count);
      table.cell_fixed(row.wait.sum / 1000.0, 1);
      for (const double ns : {row.wait.mean(), row.wait.p50(), row.wait.p90(), row.wait.p99(),
                              row.wait.max})
        table.cell_fixed(ns, 0);
      table.end_row();
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
  }

  args.fail();
}

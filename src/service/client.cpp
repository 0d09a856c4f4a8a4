#include "service/client.hpp"

#include <algorithm>

#include "core/archive.hpp"
#include "core/code_map.hpp"
#include "core/object_map.hpp"
#include "core/sample_log.hpp"
#include "support/str_scan.hpp"

namespace viprof::service {

namespace {

constexpr const char* kManifestPath = "archive/manifest";

}  // namespace

ReplayClient::ReplayClient(const os::Vfs& world, std::string session_id, Transport& out,
                           ReplayOptions options)
    : world_(world), session_id_(std::move(session_id)), out_(out), options_(options) {}

bool ReplayClient::send(FrameType type, const std::string& payload) {
  if (disconnected_) return false;
  if (options_.fault != nullptr &&
      options_.fault->should_kill(support::FaultComponent::kClient, frames_sent_)) {
    disconnected_ = true;
    return false;
  }
  support::TraceContext trace = options_.trace;
  trace.parent_span = frames_sent_;  // which client hop this frame was
  if (!out_.send(encode_frame(type, payload, trace))) {
    disconnected_ = true;
    return false;
  }
  ++frames_sent_;
  return true;
}

bool ReplayClient::send_file(const std::string& path) {
  const auto bytes = world_.read(path);
  if (!bytes) return true;  // nothing recorded under that path
  return send(FrameType::kFile, path + "\n" + *bytes);
}

bool ReplayClient::announce_maps(const std::map<hw::Pid, std::uint64_t>& needed) {
  for (VmInfo& vm : vms_) {
    const auto it = needed.find(vm.pid);
    if (it == needed.end()) continue;
    while (!vm.pending_maps.empty() && vm.pending_maps.front().first <= it->second) {
      if (!send_file(vm.pending_maps.front().second)) return false;
      vm.pending_maps.erase(vm.pending_maps.begin());
    }
  }
  return true;
}

bool ReplayClient::stream_event_log(hw::EventKind event) {
  const auto raw = world_.read(core::SampleLogWriter::path_for("samples", event));
  if (!raw) return true;  // event not recorded

  const std::string header_prefix = "batch " + std::string(hw::to_string(event)) + " ";
  const std::string_view log = *raw;
  std::size_t batch_from = 0, batch_to = 0;  // the batch is log[batch_from, batch_to)
  std::size_t body_lines = 0;
  std::map<hw::Pid, std::uint64_t> needed;  // per-pid max epoch in this batch

  auto flush = [&]() -> bool {
    if (body_lines == 0) return true;
    if (!announce_maps(needed)) return false;
    std::string payload = header_prefix + std::to_string(body_lines) + "\n";
    payload.append(log.substr(batch_from, batch_to - batch_from));
    // An unterminated tail (a torn final write) still goes out, newline-
    // terminated: the server's parser is the one to judge it.
    if (payload.back() != '\n') payload += '\n';
    if (!send(FrameType::kSampleBatch, payload)) return false;
    ++batches_sent_;
    records_sent_ += body_lines;
    batch_from = batch_to;
    body_lines = 0;
    needed.clear();
    return true;
  };

  // Only pid and epoch are peeked, to drive map announcement; the server
  // does the real verification.
  auto add_line = [&](std::string_view line) -> bool {
    const auto end = static_cast<std::size_t>(line.data() + line.size() - log.data());
    std::uint64_t seq = 0;
    core::LoggedSample sample;
    if (core::scan_sample_fields(line, seq, sample)) {
      auto [it, inserted] = needed.emplace(sample.pid, sample.epoch);
      if (!inserted) it->second = std::max(it->second, sample.epoch);
    }
    batch_to = std::min(end + 1, log.size());  // its newline, if it has one
    return ++body_lines < options_.batch_records || flush();
  };

  support::LineCursor cursor(log);
  std::string_view line;
  while (cursor.next(line))
    if (!add_line(line)) return false;
  if (!cursor.tail().empty() && !add_line(cursor.tail())) return false;
  return flush();
}

bool ReplayClient::run() {
  if (!send(FrameType::kHello, session_id_)) return false;
  if (!send(FrameType::kOpenSession, session_id_)) return false;

  const auto manifest = world_.read(kManifestPath);
  if (manifest) {
    // Registrations first (live table), then the manifest itself (the
    // resolver world), then the boot maps it references.
    std::vector<std::string> boot_maps;
    const auto announce = [&](std::string_view line) {
      if (line.substr(0, 4) != "reg ") return true;
      if (!send(FrameType::kRegisterVm, std::string(line))) return false;

      const auto reg = core::parse_reg_line(line);
      if (!reg) return true;
      VmInfo vm;
      vm.pid = reg->pid;
      if (!reg->boot_map_path.empty()) boot_maps.push_back(reg->boot_map_path);
      // Object maps (absent in old manifests) announce on the same epoch
      // schedule as code maps — a batch referencing epoch E needs both maps
      // of E on the server first.
      const std::string pid_dir = "/" + std::to_string(vm.pid) + "/";
      if (!reg->jit_map_dir.empty())
        for (const std::string& path : world_.list(reg->jit_map_dir + pid_dir))
          if (const auto epoch = core::CodeMapFile::epoch_from_path(path))
            vm.pending_maps.emplace_back(*epoch, path);
      if (!reg->obj_map_dir.empty())
        for (const std::string& path : world_.list(reg->obj_map_dir + pid_dir))
          if (const auto epoch = core::ObjectMapFile::epoch_from_path(path))
            vm.pending_maps.emplace_back(*epoch, path);
      std::sort(vm.pending_maps.begin(), vm.pending_maps.end());
      vms_.push_back(std::move(vm));
      return true;
    };
    support::LineCursor cursor(*manifest);
    std::string_view line;
    while (cursor.next(line))
      if (!announce(line)) return false;
    // An unterminated last line is still a line of the manifest.
    if (!cursor.tail().empty() && !announce(cursor.tail())) return false;
    if (!send_file(kManifestPath)) return false;
    for (const std::string& path : boot_maps)
      if (!send_file(path)) return false;
  }

  for (hw::EventKind event : hw::kAllEventKinds)
    if (!stream_event_log(event)) return false;

  // Trailing maps no sample forced out (e.g. the final epoch's object map,
  // which may carry only death records) still belong to the session: flush
  // them so the server holds every map the recorded session holds.
  for (VmInfo& vm : vms_)
    for (const auto& [epoch, path] : vm.pending_maps)
      if (!send_file(path)) return false;

  return send(FrameType::kEndStream, "");
}

}  // namespace viprof::service

// Replay client: streams a recorded session directory to the server.
//
// The recorded layout is exactly what offline viprof_report consumes —
// archive/manifest, the boot maps and epoch code maps it references, and
// the per-event sample logs. The client replays that world over the wire:
// session open, registrations, world files, then the raw (already
// checksummed) sample-log lines chunked into batches. Code maps are
// announced *incrementally*: before each batch the client ships every
// not-yet-sent map whose epoch the batch is about to reference, modelling
// a VM that emits maps as it compiles. The client never verifies the log
// lines itself — the server's stream parser is the single verification
// point, the same code the offline reader uses.
//
// A FaultInjector with a kClient kill rule models a mid-stream
// disconnect: the client stops cold after N frames, without kEndStream.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/event.hpp"
#include "hw/types.hpp"
#include "os/vfs.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"

namespace viprof::service {

struct ReplayOptions {
  std::size_t batch_records = 256;          // sample lines per kSampleBatch
  support::FaultInjector* fault = nullptr;  // kClient = disconnect after N frames
  /// When valid, every frame carries the trace extension: trace_id from
  /// here, parent_span = the frame's send ordinal (so the server can tell
  /// which client-side hop each ingest span descends from).
  support::TraceContext trace;
};

class ReplayClient {
 public:
  /// `world` holds the recorded session; `out` is the connection to
  /// stream it over (typically a ServerConnection).
  ReplayClient(const os::Vfs& world, std::string session_id, Transport& out,
               ReplayOptions options = {});

  /// Streams the whole session. False when a disconnect fault (or a
  /// closed transport) ended the stream early — kEndStream not sent.
  bool run();

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t batches_sent() const { return batches_sent_; }
  std::uint64_t records_sent() const { return records_sent_; }
  bool disconnected() const { return disconnected_; }

 private:
  struct VmInfo {
    hw::Pid pid = 0;
    // Unsent epoch maps, ascending; announced once their epoch is needed.
    std::vector<std::pair<std::uint64_t, std::string>> pending_maps;
  };

  bool send(FrameType type, const std::string& payload);
  bool send_file(const std::string& path);
  bool announce_maps(const std::map<hw::Pid, std::uint64_t>& needed);
  bool stream_event_log(hw::EventKind event);

  const os::Vfs& world_;
  const std::string session_id_;
  Transport& out_;
  const ReplayOptions options_;
  std::vector<VmInfo> vms_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t records_sent_ = 0;
  bool disconnected_ = false;
};

}  // namespace viprof::service

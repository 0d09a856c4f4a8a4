// Wire framing for the continuous-profiling service.
//
// Clients stream frames to the profile server: session control, VM
// registrations, code-map files, sample batches and queries. Framing
// extends the crash-consistency discipline from files to the wire — every
// frame is length-prefixed and checksummed, and the decoder never trusts
// bytes it cannot verify: a damaged frame is skipped by resynchronising on
// the next magic marker, with the tear and the skipped bytes *counted*,
// exactly as the sample-log reader salvages a torn file.
//
// The trailer is XXH32 (support::xxh32) at seed 0: the persisted formats
// key their XXH32 by the file (framed-text v2), but wire frames are never
// written to disk (both ends run in-process) and carry their own type, so
// the wire needs no key and its frames stay byte-identical across that
// change. A word-wise hash instead of FNV-1a's byte-serial one is what the
// receiver thread pays (DESIGN.md §10 has the measured cost); any
// single-byte change still alters the checksum.
//
// Frame layout (little-endian):
//   offset 0  'V' 'F'        magic
//   offset 2  u8  type       FrameType
//   offset 3  u8  flags      bit 0: trace extension present; rest reserved 0
//   offset 4  u32 length     payload byte count (extension not included)
//   offset 8  [u64 trace_id, u64 parent_span]   iff flags bit 0 (16 bytes)
//   then      payload
//   then      u32 crc        XXH32 over header + extension + payload
//
// The flags byte was once an always-zero reserved byte, so untraced frames
// keep that layout. Unknown flag bits are treated as damage — a
// future extension the decoder does not understand must not half-parse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/traced_mutex.hpp"

namespace viprof::service {

enum class FrameType : std::uint8_t {
  kHello = 1,        // "client <name>"
  kOpenSession = 2,  // "session <id>"
  kRegisterVm = 3,   // one manifest "reg ..." line (archive format)
  kFile = 4,         // "<path>\n" + raw file bytes (code maps, boot maps, manifest)
  kSampleBatch = 5,  // "batch <EVENT> <line_count>\n" + raw sample-log lines
  kEndStream = 6,    // client is done; payload empty
  kQuery = 7,        // query text ("top 10", "sessions", ...)
  kReply = 8,        // server reply text
  kError = 9,        // server-side rejection text
};

inline const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kOpenSession: return "open-session";
    case FrameType::kRegisterVm: return "register-vm";
    case FrameType::kFile: return "file";
    case FrameType::kSampleBatch: return "sample-batch";
    case FrameType::kEndStream: return "end-stream";
    case FrameType::kQuery: return "query";
    case FrameType::kReply: return "reply";
    case FrameType::kError: return "error";
  }
  return "?";
}

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
  /// Trace extension contents; trace.valid() is false for untraced frames.
  support::TraceContext trace;
};

/// Zero-copy view of one verified frame: `payload` points into the
/// decoder's buffer and stays valid only until the next feed()/next()/
/// next_view() call on that decoder. The server's batch path decodes
/// through views — sample payloads go straight from the wire buffer into
/// the parser without the per-frame payload copy Frame carries.
struct FrameView {
  FrameType type = FrameType::kHello;
  std::string_view payload;
  support::TraceContext trace;
};

inline constexpr std::size_t kFrameHeaderBytes = 8;    // magic+type+flags+len
inline constexpr std::size_t kFrameTrailerBytes = 4;   // crc
inline constexpr std::size_t kFrameTraceExtBytes = 16; // trace_id + parent_span
inline constexpr std::uint8_t kFrameFlagTraced = 0x1;

/// Serialises one frame (header + payload + checksum). The overload with a
/// valid TraceContext sets the traced flag and inserts the 16-byte
/// extension; an invalid context encodes the historical untraced layout.
std::string encode_frame(FrameType type, const std::string& payload);
std::string encode_frame(FrameType type, const std::string& payload,
                         const support::TraceContext& trace);

/// Streaming decoder. feed() raw bytes in any chunking; next() yields
/// verified frames in order. Damage (bad magic, bad checksum, impossible
/// length) is skipped by scanning forward for the next magic marker.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size) {
    compact();
    buffer_.append(data, size);
  }
  void feed(const std::string& bytes) {
    compact();
    buffer_ += bytes;
  }

  /// True when a complete verified frame was extracted into `out`
  /// (payload copied out of the buffer).
  bool next(Frame& out);

  /// Zero-copy variant: `out.payload` views the internal buffer and is
  /// invalidated by the next feed()/next()/next_view(). Consumed bytes are
  /// reclaimed lazily on the next call, so decoding N buffered frames
  /// costs one buffer compaction, not N head-erase memmoves.
  bool next_view(FrameView& out);

  /// Frames discarded for framing/checksum damage.
  std::uint64_t torn_frames() const { return torn_frames_; }
  /// Bytes skipped while resynchronising past damage.
  std::uint64_t skipped_bytes() const { return skipped_bytes_; }
  /// Bytes buffered but not yet decodable (a frame still in flight).
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  /// Drops `n` leading buffer bytes as damage and rescans for magic.
  void skip_damage(std::size_t n);
  /// Erases bytes already handed out through next_view().
  void compact() {
    if (consumed_ != 0) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
  }

  std::string buffer_;
  std::size_t consumed_ = 0;  // leading bytes owned by the last next_view()
  std::uint64_t torn_frames_ = 0;
  std::uint64_t skipped_bytes_ = 0;
};

}  // namespace viprof::service

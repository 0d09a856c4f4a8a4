#include "service/wire.hpp"

#include "support/format.hpp"

namespace viprof::service {

namespace {

constexpr char kMagic0 = 'V';
constexpr char kMagic1 = 'F';

// A frame longer than this is treated as damage rather than waited for: a
// corrupted length field must not make the decoder buffer forever.
constexpr std::size_t kMaxPayload = 64 * 1024 * 1024;

std::uint32_t read_u32le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void append_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint64_t read_u64le(const char* p) {
  return static_cast<std::uint64_t>(read_u32le(p)) |
         static_cast<std::uint64_t>(read_u32le(p + 4)) << 32;
}

void append_u64le(std::string& out, std::uint64_t v) {
  append_u32le(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  append_u32le(out, static_cast<std::uint32_t>(v >> 32));
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kError);
}

}  // namespace

std::string encode_frame(FrameType type, const std::string& payload) {
  return encode_frame(type, payload, support::TraceContext{});
}

std::string encode_frame(FrameType type, const std::string& payload,
                         const support::TraceContext& trace) {
  const bool traced = trace.valid();
  std::string out;
  out.reserve(kFrameHeaderBytes + (traced ? kFrameTraceExtBytes : 0) +
              payload.size() + kFrameTrailerBytes);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<char>(type));
  out.push_back(traced ? static_cast<char>(kFrameFlagTraced) : 0);
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  if (traced) {
    append_u64le(out, trace.trace_id);
    append_u64le(out, trace.parent_span);
  }
  out += payload;
  append_u32le(out, support::xxh32(out.data(), out.size()));
  return out;
}

void FrameDecoder::skip_damage(std::size_t min_drop) {
  // Resynchronise at the next magic marker. A trailing lone 'V' is kept —
  // its 'F' may simply not have arrived yet.
  std::size_t resync = buffer_.size();
  for (std::size_t i = min_drop; i < buffer_.size(); ++i) {
    if (buffer_[i] != kMagic0) continue;
    if (i + 1 < buffer_.size() && buffer_[i + 1] != kMagic1) continue;
    resync = i;
    break;
  }
  ++torn_frames_;
  skipped_bytes_ += resync;
  buffer_.erase(0, resync);
}

bool FrameDecoder::next_view(FrameView& out) {
  compact();
  for (;;) {
    if (buffer_.size() < kFrameHeaderBytes) return false;
    const auto flags = static_cast<std::uint8_t>(buffer_[3]);
    if (buffer_[0] != kMagic0 || buffer_[1] != kMagic1 ||
        !valid_type(static_cast<std::uint8_t>(buffer_[2])) ||
        (flags & ~kFrameFlagTraced) != 0) {  // unknown flag bits = damage
      skip_damage(1);
      continue;
    }
    const std::size_t ext = (flags & kFrameFlagTraced) != 0 ? kFrameTraceExtBytes : 0;
    const std::size_t length = read_u32le(buffer_.data() + 4);
    if (length > kMaxPayload) {
      skip_damage(1);
      continue;
    }
    const std::size_t total = kFrameHeaderBytes + ext + length + kFrameTrailerBytes;
    if (buffer_.size() < total) return false;  // frame still in flight
    const std::uint32_t crc_read =
        read_u32le(buffer_.data() + kFrameHeaderBytes + ext + length);
    const std::uint32_t crc_calc =
        support::xxh32(buffer_.data(), kFrameHeaderBytes + ext + length);
    if (crc_read != crc_calc) {
      // A tear inside the frame body: the header looked fine, the bytes
      // did not. Skip past the bogus magic and rescan — anything that was
      // a real frame boundary inside survives the rescan.
      skip_damage(1);
      continue;
    }
    out.type = static_cast<FrameType>(buffer_[2]);
    out.trace = support::TraceContext{};
    if (ext != 0) {
      out.trace.trace_id = read_u64le(buffer_.data() + kFrameHeaderBytes);
      out.trace.parent_span = read_u64le(buffer_.data() + kFrameHeaderBytes + 8);
    }
    out.payload = std::string_view(buffer_).substr(kFrameHeaderBytes + ext, length);
    consumed_ = total;  // reclaimed lazily by the next compact()
    return true;
  }
}

bool FrameDecoder::next(Frame& out) {
  FrameView view;
  if (!next_view(view)) return false;
  out.type = view.type;
  out.trace = view.trace;
  out.payload.assign(view.payload.data(), view.payload.size());
  return true;
}

}  // namespace viprof::service

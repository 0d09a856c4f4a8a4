// A Transport that keeps its own copy of every file a client streams
// through it, then forwards the bytes unchanged. A session keeps maps only
// on their shelves (DESIGN.md §14), so the full-reload oracles read the
// streamed files from this copy.
#pragma once

#include <string>

#include "os/vfs.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"

namespace viprof::service {

class StreamTap final : public Transport {
 public:
  /// Forwards to `next`; every kFile frame sent is also written to `files`.
  StreamTap(Transport& next, os::Vfs& files) : next_(next), files_(files) {}

  bool send(const std::string& bytes) override {
    decoder_.feed(bytes);
    Frame frame;
    while (decoder_.next(frame)) {
      const std::size_t nl = frame.payload.find('\n');
      if (frame.type == FrameType::kFile && nl != std::string::npos)
        files_.write(frame.payload.substr(0, nl), frame.payload.substr(nl + 1));
    }
    return next_.send(bytes);
  }
  void close() override { next_.close(); }
  bool is_closed() const override { return next_.is_closed(); }

 private:
  Transport& next_;
  os::Vfs& files_;
  FrameDecoder decoder_;
};

}  // namespace viprof::service

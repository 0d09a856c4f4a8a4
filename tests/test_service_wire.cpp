#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sample_log.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"

namespace viprof::service {
namespace {

std::vector<Frame> decode_all(FrameDecoder& decoder) {
  std::vector<Frame> frames;
  Frame f;
  while (decoder.next(f)) frames.push_back(f);
  return frames;
}

TEST(Wire, RoundTripsFrames) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kHello, "client-1"));
  decoder.feed(encode_frame(FrameType::kSampleBatch, "batch GLOBAL_POWER_EVENTS 0\n"));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].payload, "client-1");
  EXPECT_EQ(frames[1].type, FrameType::kSampleBatch);
  EXPECT_EQ(decoder.torn_frames(), 0u);
}

TEST(Wire, DecodesByteByByte) {
  // Frames split at arbitrary boundaries must reassemble.
  const std::string bytes = encode_frame(FrameType::kFile, "path\ncontents") +
                            encode_frame(FrameType::kEndStream, "");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame f;
  for (char c : bytes) {
    decoder.feed(&c, 1);
    while (decoder.next(f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "path\ncontents");
  EXPECT_EQ(frames[1].type, FrameType::kEndStream);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Wire, EmptyPayloadAndBinaryPayload) {
  std::string binary("\x00\x01VF\xff payload \n with magic inside", 33);
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kQuery, ""));
  decoder.feed(encode_frame(FrameType::kReply, binary));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "");
  EXPECT_EQ(frames[1].payload, binary);
}

TEST(Wire, CorruptCrcSkipsFrameAndResyncs) {
  std::string damaged = encode_frame(FrameType::kHello, "aaaa");
  damaged[damaged.size() - 1] ^= 0x40;  // flip a crc bit
  FrameDecoder decoder;
  decoder.feed(damaged);
  decoder.feed(encode_frame(FrameType::kHello, "bbbb"));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "bbbb");
  EXPECT_GE(decoder.torn_frames(), 1u);
  EXPECT_GT(decoder.skipped_bytes(), 0u);
}

TEST(Wire, GarbageBetweenFramesIsSkipped) {
  FrameDecoder decoder;
  decoder.feed("no frame here at all ");
  decoder.feed(encode_frame(FrameType::kHello, "x"));
  decoder.feed("VF\x7f");  // bogus type: damage, not a frame
  decoder.feed(encode_frame(FrameType::kHello, "y"));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "x");
  EXPECT_EQ(frames[1].payload, "y");
  EXPECT_GE(decoder.torn_frames(), 1u);
}

TEST(Wire, RepeatedTornFramesResyncEveryTime) {
  // One stream, many tears: every torn prefix swallows the head of the
  // frame behind it during the crc check, and the decoder must rescan and
  // recover the intact frame after *each* tear, not just the first.
  FrameDecoder decoder;
  const int kTears = 6;
  for (int i = 0; i < kTears; ++i) {
    std::string torn = encode_frame(
        FrameType::kFile, "doomed-" + std::to_string(i) + "\npayload bytes");
    torn.resize(torn.size() / 2);  // only a prefix reaches the wire
    decoder.feed(torn);
    decoder.feed(encode_frame(FrameType::kSampleBatch,
                              "batch " + std::to_string(i)));
  }
  decoder.feed(encode_frame(FrameType::kEndStream, ""));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kTears) + 1);
  for (int i = 0; i < kTears; ++i) {
    EXPECT_EQ(frames[i].type, FrameType::kSampleBatch);
    EXPECT_EQ(frames[i].payload, "batch " + std::to_string(i));
  }
  EXPECT_EQ(frames.back().type, FrameType::kEndStream);
  EXPECT_GE(decoder.torn_frames(), static_cast<std::uint64_t>(kTears));
  EXPECT_GT(decoder.skipped_bytes(), 0u);
}

TEST(Wire, TruncatedFrameStaysBuffered) {
  const std::string whole = encode_frame(FrameType::kFile, "p\n0123456789");
  FrameDecoder decoder;
  decoder.feed(whole.data(), whole.size() - 3);
  Frame f;
  EXPECT_FALSE(decoder.next(f));
  EXPECT_GT(decoder.buffered_bytes(), 0u);  // a disconnect here = torn frame
  decoder.feed(whole.data() + whole.size() - 3, 3);
  EXPECT_TRUE(decoder.next(f));
  EXPECT_EQ(f.payload, "p\n0123456789");
}

TEST(Wire, OversizedLengthIsRejectedAsDamage) {
  // Corrupt the length field to a huge value: the decoder must not wait
  // for 4GB of payload, it must resync.
  std::string frame = encode_frame(FrameType::kHello, "zz");
  frame[4] = '\xff';
  frame[5] = '\xff';
  frame[6] = '\xff';
  frame[7] = '\x7f';
  FrameDecoder decoder;
  decoder.feed(frame);
  decoder.feed(encode_frame(FrameType::kHello, "ok"));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "ok");
  EXPECT_GE(decoder.torn_frames(), 1u);
}

TEST(LoopbackTransport, DeliversToSink) {
  std::string received;
  LoopbackTransport wire(
      "c", [&](const char* data, std::size_t size) { received.append(data, size); },
      nullptr, nullptr);
  EXPECT_TRUE(wire.send("hello"));
  EXPECT_TRUE(wire.send(" world"));
  EXPECT_EQ(received, "hello world");
  wire.close();
  EXPECT_FALSE(wire.send("late"));
  EXPECT_EQ(received, "hello world");
}

TEST(LoopbackTransport, CloseHookFiresOnce) {
  int closes = 0;
  {
    LoopbackTransport wire("c", [](const char*, std::size_t) {}, [&] { ++closes; },
                           nullptr);
    wire.close();
    wire.close();
  }  // destructor must not re-fire
  EXPECT_EQ(closes, 1);
}

TEST(LoopbackTransport, TornWriteDeliversPrefixOnly) {
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "wire/c";
  rule.kind = support::FaultKind::kTornWrite;
  rule.skip = 1;  // first frame lands intact
  rule.count = 1;
  fault.add_rule(rule);
  std::string received;
  LoopbackTransport wire(
      "c", [&](const char* data, std::size_t size) { received.append(data, size); },
      nullptr, &fault);

  const std::string f1 = encode_frame(FrameType::kHello, "first");
  const std::string f2 = encode_frame(FrameType::kHello, "second");
  EXPECT_TRUE(wire.send(f1));
  wire.send(f2);  // torn mid-frame by the injector
  EXPECT_EQ(wire.torn_sends(), 1u);
  EXPECT_LT(received.size(), f1.size() + f2.size());

  // The decoder sees one intact frame and damage, never a corrupt accept.
  FrameDecoder decoder;
  decoder.feed(received);
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "first");
}

// --- Zero-copy view decode (DESIGN.md §14) ----------------------------------

TEST(WireView, NextViewYieldsPayloadsWithoutCopying) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kHello, "client-1"));
  decoder.feed(encode_frame(FrameType::kSampleBatch, "batch GLOBAL_POWER_EVENTS 0\n"));
  FrameView v;
  ASSERT_TRUE(decoder.next_view(v));
  EXPECT_EQ(v.type, FrameType::kHello);
  EXPECT_EQ(v.payload, "client-1");
  ASSERT_TRUE(decoder.next_view(v));
  EXPECT_EQ(v.type, FrameType::kSampleBatch);
  EXPECT_EQ(v.payload, "batch GLOBAL_POWER_EVENTS 0\n");
  EXPECT_FALSE(decoder.next_view(v));
  // Every consumed byte is accounted: nothing left pending.
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.torn_frames(), 0u);
}

TEST(WireView, ViewStaysValidUntilNextDecoderCall) {
  // The contract the server's batch path relies on: the string_view handed
  // out by next_view() must be readable until the *next* feed()/next()/
  // next_view() — the parser reads samples straight out of it.
  FrameDecoder decoder;
  const std::string big(8 * 1024, 'q');
  decoder.feed(encode_frame(FrameType::kFile, "a\n" + big));
  decoder.feed(encode_frame(FrameType::kEndStream, ""));
  FrameView v;
  ASSERT_TRUE(decoder.next_view(v));
  // Consume the view's bytes *after* next_view returned.
  EXPECT_EQ(v.payload.substr(0, 2), "a\n");
  EXPECT_EQ(v.payload.size(), 2u + big.size());
  for (std::size_t i = 2; i < v.payload.size(); i += 997) {
    ASSERT_EQ(v.payload[i], 'q') << "view byte " << i << " invalidated early";
  }
  ASSERT_TRUE(decoder.next_view(v));  // previous view dies here, by contract
  EXPECT_EQ(v.type, FrameType::kEndStream);
}

TEST(WireView, LazyCompactionReclaimsConsumedBytesOnFeed) {
  // Draining N buffered frames through next_view() must not memmove the
  // buffer head N times: consumed bytes linger (tracked, not visible in
  // buffered_bytes) and are erased once on the next feed().
  FrameDecoder decoder;
  std::string stream;
  for (int i = 0; i < 16; ++i)
    stream += encode_frame(FrameType::kQuery, "q" + std::to_string(i));
  decoder.feed(stream);
  FrameView v;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(decoder.next_view(v));
    EXPECT_EQ(v.payload, "q" + std::to_string(i));
  }
  EXPECT_FALSE(decoder.next_view(v));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // all consumed, none pending
  // Feeding more triggers the single compaction; decode continues cleanly.
  decoder.feed(encode_frame(FrameType::kEndStream, ""));
  ASSERT_TRUE(decoder.next_view(v));
  EXPECT_EQ(v.type, FrameType::kEndStream);
}

TEST(WireView, NextAndNextViewInteroperateOnOneStream) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kHello, "h"));
  decoder.feed(encode_frame(FrameType::kQuery, "top 5"));
  decoder.feed(encode_frame(FrameType::kEndStream, ""));
  Frame owned;
  FrameView view;
  ASSERT_TRUE(decoder.next(owned));
  EXPECT_EQ(owned.payload, "h");
  ASSERT_TRUE(decoder.next_view(view));
  EXPECT_EQ(view.payload, "top 5");
  ASSERT_TRUE(decoder.next(owned));
  EXPECT_EQ(owned.type, FrameType::kEndStream);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireView, TornFramesResyncThroughNextView) {
  // The zero-copy path must salvage damage exactly like next(): count the
  // tear, skip to the next magic, and keep decoding.
  FrameDecoder decoder;
  std::string torn = encode_frame(FrameType::kFile, "doomed\npayload");
  torn.resize(torn.size() / 2);
  decoder.feed(torn);
  decoder.feed(encode_frame(FrameType::kSampleBatch, "batch survives"));
  std::string damaged = encode_frame(FrameType::kHello, "cccc");
  damaged[damaged.size() - 2] ^= 0x10;  // crc damage
  decoder.feed(damaged);
  decoder.feed(encode_frame(FrameType::kEndStream, ""));

  FrameView v;
  std::vector<std::string> payloads;
  while (decoder.next_view(v)) payloads.emplace_back(v.payload);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "batch survives");
  EXPECT_EQ(payloads[1], "");
  EXPECT_GE(decoder.torn_frames(), 2u);
  EXPECT_GT(decoder.skipped_bytes(), 0u);
}

TEST(WireView, TracedFrameDecodesContextThroughView) {
  const support::TraceContext trace{0xabcdef0011223344ull, 9};
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kSampleBatch, "payload", trace));
  FrameView v;
  ASSERT_TRUE(decoder.next_view(v));
  EXPECT_EQ(v.payload, "payload");
  EXPECT_EQ(v.trace.trace_id, trace.trace_id);
  EXPECT_EQ(v.trace.parent_span, 9u);
}

// --- Trace-context extension (DESIGN.md §13) --------------------------------

TEST(WireTrace, TracedFrameRoundTripsContext) {
  const support::TraceContext trace{0x1122334455667788ull, 42};
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kSampleBatch, "payload", trace));
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "payload");
  EXPECT_EQ(frames[0].trace.trace_id, trace.trace_id);
  EXPECT_EQ(frames[0].trace.parent_span, 42u);
  EXPECT_EQ(decoder.torn_frames(), 0u);
}

TEST(WireTrace, UntracedEncodingIsByteIdenticalToHistorical) {
  // The flags byte was reserved-zero before the extension existed; an
  // untraced frame must still encode exactly as it always did, so mixed
  // old/new fleets interoperate.
  const std::string plain = encode_frame(FrameType::kHello, "abc");
  const std::string with_empty_ctx =
      encode_frame(FrameType::kHello, "abc", support::TraceContext{});
  EXPECT_EQ(plain, with_empty_ctx);
  EXPECT_EQ(plain.size(), kFrameHeaderBytes + 3 + kFrameTrailerBytes);
  EXPECT_EQ(plain[3], '\0');  // flags byte stays zero

  const std::string traced =
      encode_frame(FrameType::kHello, "abc", support::TraceContext{1, 0});
  EXPECT_EQ(traced.size(), plain.size() + kFrameTraceExtBytes);
  EXPECT_EQ(static_cast<std::uint8_t>(traced[3]), kFrameFlagTraced);

  FrameDecoder decoder;
  decoder.feed(plain);
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(frames[0].trace.valid());
}

TEST(WireTrace, UnknownFlagBitsAreDamageNotMisparses) {
  // A frame claiming a flag this decoder does not know could carry an
  // extension of unknown size — skipping it as damage (counted, resynced)
  // is the only safe read.
  std::string bytes = encode_frame(FrameType::kHello, "abc");
  bytes[3] = static_cast<char>(0x2);
  bytes += encode_frame(FrameType::kEndStream, "");
  FrameDecoder decoder;
  decoder.feed(bytes);
  const std::vector<Frame> frames = decode_all(decoder);
  ASSERT_EQ(frames.size(), 1u);  // the good frame after the damage
  EXPECT_EQ(frames[0].type, FrameType::kEndStream);
  EXPECT_GE(decoder.torn_frames(), 1u);
}

TEST(WireTrace, TracedFramesSurviveByteByByteReassembly) {
  const support::TraceContext trace = support::TraceContext::mint("sess-7");
  const std::string bytes =
      encode_frame(FrameType::kFile, "f\nbody", trace) +
      encode_frame(FrameType::kEndStream, "", trace);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame f;
  for (char c : bytes) {
    decoder.feed(&c, 1);
    while (decoder.next(f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].trace.trace_id, trace.trace_id);
  EXPECT_EQ(frames[1].trace.trace_id, trace.trace_id);
}

// --- Single-byte damage (the checksum's guarantee) ------------------------

// A batch frame payload as the replay client sends it: the header line, then
// framed sample lines, about `bytes` long.
std::string sample_batch_payload(std::size_t bytes) {
  std::string payload = "batch GLOBAL_POWER_EVENTS 0\n";
  char buf[core::kMaxSampleLine];
  for (std::uint64_t seq = 1; payload.size() < bytes; ++seq) {
    core::LoggedSample sample;
    sample.pc = 0x7f0000001000ull + seq * 0x9e37;
    sample.caller_pc = 0x400000ull + seq * 13;
    sample.pid = static_cast<hw::Pid>(100 + seq % 3);
    sample.epoch = seq / 40;
    sample.cycle = seq * 9000;
    payload += core::format_sample_line(
        seq, sample, core::sample_line_hash(hw::EventKind::kGlobalPowerEvents), buf);
  }
  return payload;
}

// Every byte of untraced and traced frames, xor-ed with several masks,
// between an intact frame before and after: the decoder yields only frames
// whose bytes were encoded (never the damaged one), always the frame before,
// and the frame after whenever the damage left the length field alone (a
// grown length rightly waits for bytes that never come).
TEST(WireProperty, NoSingleByteFlipYieldsAFrameThatWasNotSent) {
  const std::string lead = encode_frame(FrameType::kHello, "client-before");
  const std::string tail = encode_frame(FrameType::kReply, "the frame after the damage");
  const support::TraceContext trace{0x0123456789abcdefull, 77};
  const std::vector<std::string> payloads = {
      "", "a", std::string(15, 'q'), std::string(16, 'r'), std::string(17, 's'),
      sample_batch_payload(12 * 1024)};
  for (const bool traced : {false, true}) {
    for (const std::string& payload : payloads) {
      const std::string frame =
          traced ? encode_frame(FrameType::kSampleBatch, payload, trace)
                 : encode_frame(FrameType::kSampleBatch, payload);
      const std::vector<unsigned> masks =
          payload.size() > 64 ? std::vector<unsigned>{0x01, 0x80, 0xff}
                              : std::vector<unsigned>{0x01, 0x02, 0x10, 0x80, 0x5a, 0xa5, 0xff};
      std::string bytes = lead + frame + tail;
      for (std::size_t at = 0; at < frame.size(); ++at) {
        for (const unsigned mask : masks) {
          char& victim = bytes[lead.size() + at];
          victim = static_cast<char>(victim ^ mask);
          FrameDecoder decoder;
          decoder.feed(bytes);
          victim = static_cast<char>(victim ^ mask);  // restored for the next case
          std::vector<std::string> got;
          FrameView view;
          while (decoder.next_view(view)) {
            got.push_back(encode_frame(view.type, std::string(view.payload), view.trace));
          }
          const std::string where = (traced ? "traced" : "untraced") + std::string(" payload ") +
                                    std::to_string(payload.size()) + " byte " +
                                    std::to_string(at) + " mask " + std::to_string(mask);
          ASSERT_FALSE(got.empty()) << where;
          ASSERT_EQ(got.front(), lead) << where;
          ASSERT_LE(got.size(), 2u) << where;
          if (got.size() == 2) {
            ASSERT_EQ(got.back(), tail) << where;
          }
          const bool length_field = at >= 4 && at < kFrameHeaderBytes;
          if (!length_field) {
            ASSERT_EQ(got.size(), 2u) << where;
            ASSERT_GE(decoder.torn_frames(), 1u) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace viprof::service

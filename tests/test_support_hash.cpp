// Pins the hash primitives in support/hash.hpp to their canonical constants
// and reference digests. Every framed on-disk format (sample logs, code
// maps, object maps, store segments, manifests), the wire frame trailer and
// the fleet ring / trace minting key on these functions: if any constant
// drifts, previously written files stop verifying and byte-identity anchors
// break silently. This test makes that drift loud. xxh32, the v2 frame
// checksum (seeded) and the wire checksum (seed 0), is checked against the
// published vectors and a byte-at-a-time transcription of the algorithm at
// every length across its stripe and tail boundaries, at several seeds;
// fnv1a, the v1 checksum, against its own vectors.
#include "support/hash.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "fleet/ring.hpp"
#include "support/traced_mutex.hpp"

namespace viprof {
namespace {

TEST(SupportHash, Fnv1a32PinnedVectors) {
  // Offset basis: hash of the empty string IS the basis constant.
  EXPECT_EQ(support::fnv1a(""), 0x811c9dc5u);
  // Canonical published FNV-1a test vectors.
  EXPECT_EQ(support::fnv1a("a"), 0xe40c292cu);
  EXPECT_EQ(support::fnv1a("foobar"), 0xbf9cf968u);
  // One multiplier step from the basis: (basis ^ 'a') * prime.
  EXPECT_EQ(support::fnv1a("a"), (0x811c9dc5u ^ 'a') * 0x01000193u);
}

TEST(SupportHash, Fnv1a32BinarySafe) {
  const char raw[] = {'\0', '\x01', '\xff', '\0'};
  const std::uint32_t h = support::fnv1a(raw, sizeof(raw));
  std::uint32_t want = 0x811c9dc5u;
  for (const char c : raw) {
    want ^= static_cast<unsigned char>(c);
    want *= 0x01000193u;
  }
  EXPECT_EQ(h, want);
}

TEST(SupportHash, Fnv1a64PinnedVectors) {
  EXPECT_EQ(support::fnv1a64(""), 14695981039346656037ull);  // 0xcbf29ce484222325
  EXPECT_EQ(support::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(support::fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(support::fnv1a64("a"),
            (14695981039346656037ull ^ 'a') * 1099511628211ull);
}

TEST(SupportHash, Fmix64PinnedConstants) {
  // fmix64(0) must be 0 (all-xor/multiply of zero), and one known vector
  // pins the two multiplier constants.
  EXPECT_EQ(support::fmix64(0), 0ull);
  std::uint64_t h = 1;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  EXPECT_EQ(support::fmix64(1), h);
  EXPECT_EQ(support::fmix64(1), 0xb456bcfc34c2cb2cull);
}

std::uint32_t xxh32(std::string_view s) { return support::xxh32(s.data(), s.size()); }

TEST(SupportHash, Xxh32PublishedVectors) {
  EXPECT_EQ(xxh32(""), 0x02cc5d05u);
  EXPECT_EQ(xxh32("a"), 0x550d7456u);
  EXPECT_EQ(xxh32("abc"), 0x32d153ffu);
  EXPECT_EQ(xxh32("Nobody inspects the spammish repetition"), 0xe2293b2fu);
  // The published seeded vector (seed = PRIME32_1).
  EXPECT_EQ(support::xxh32("", 0, 0x9E3779B1u), 0x36B78AE7u);
}

// XXH32 transcribed from the specification one byte at a time:
// each 32-bit word is assembled little-endian from single bytes, so the
// kernel's memcpy word loads, stripe loop and tails have an independent
// reference.
std::uint32_t xxh32_bytewise(const unsigned char* p, std::size_t n, std::uint32_t seed) {
  const std::uint32_t p1 = 2654435761u, p2 = 2246822519u, p3 = 3266489917u,
                      p4 = 668265263u, p5 = 374761393u;
  const auto rotl = [](std::uint32_t x, int r) { return (x << r) | (x >> (32 - r)); };
  const auto word = [](const unsigned char* q) {
    return std::uint32_t{q[0]} | std::uint32_t{q[1]} << 8 | std::uint32_t{q[2]} << 16 |
           std::uint32_t{q[3]} << 24;
  };
  std::size_t i = 0;
  std::uint32_t h = 0;
  if (n >= 16) {
    std::uint32_t acc[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    while (i + 16 <= n) {
      for (int lane = 0; lane < 4; ++lane) {
        acc[lane] += word(p + i) * p2;
        acc[lane] = rotl(acc[lane], 13) * p1;
        i += 4;
      }
    }
    h = rotl(acc[0], 1) + rotl(acc[1], 7) + rotl(acc[2], 12) + rotl(acc[3], 18);
  } else {
    h = seed + p5;
  }
  h += static_cast<std::uint32_t>(n);
  while (i + 4 <= n) {
    h += word(p + i) * p3;
    h = rotl(h, 17) * p4;
    i += 4;
  }
  while (i < n) {
    h += p[i] * p5;
    h = rotl(h, 11) * p1;
    ++i;
  }
  h ^= h >> 15;
  h *= p2;
  h ^= h >> 13;
  h *= p3;
  h ^= h >> 16;
  return h;
}

TEST(SupportHash, Xxh32MatchesBytewiseTranscriptionAtEveryLength) {
  // Lengths 0..70 cross the 16-byte stripe and every 4-byte / 1-byte tail
  // boundary; bytes above 0x7f catch sign-extension slips. Each length is
  // also hashed at an odd offset, so the word loads run unaligned, and at
  // seeds that wrap the lane starts.
  std::string buf(71 + 3, '\0');
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(i * 151 + 7);
  }
  for (const std::uint32_t seed : {0u, 1u, 0x9E3779B1u, 0x61C88647u, 0xffffffffu}) {
    for (std::size_t offset : {0u, 1u, 3u}) {
      for (std::size_t n = 0; n <= 70; ++n) {
        const char* p = buf.data() + offset;
        EXPECT_EQ(support::xxh32(p, n, seed),
                  xxh32_bytewise(reinterpret_cast<const unsigned char*>(p), n, seed))
            << "length " << n << " offset " << offset << " seed " << seed;
      }
    }
  }
}

TEST(SupportHash, Xxh32SeesEverySingleByteChange) {
  std::string buf(70, 'x');
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 37);
  for (std::size_t n = 1; n <= buf.size(); ++n) {
    const std::uint32_t clean = support::xxh32(buf.data(), n);
    for (std::size_t at = 0; at < n; ++at) {
      for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
        std::string flipped = buf.substr(0, n);
        flipped[at] = static_cast<char>(flipped[at] ^ mask);
        ASSERT_NE(xxh32(flipped), clean) << "length " << n << " byte " << at;
      }
    }
  }
}

// The migrated call sites must keep their historical outputs bit-for-bit:
// ring vnode placement decides shard ownership (fleet manifest compat) and
// trace ids are stamped into exported Chrome traces.
TEST(SupportHash, RingHashIsFmixOfFnv) {
  const std::string key = "shard-2#7";
  EXPECT_EQ(fleet::fnv1a64(key), support::fmix64(support::fnv1a64(key)));
  EXPECT_NE(fleet::fnv1a64("shard-2#7"), fleet::fnv1a64("shard-2#8"));
}

TEST(SupportHash, TraceMintIsRawFnv64WithZeroGuard) {
  const auto ctx = support::TraceContext::mint("sess-41");
  EXPECT_EQ(ctx.trace_id, support::fnv1a64("sess-41"));
  EXPECT_NE(ctx.trace_id, 0ull);
  // mint never returns 0 even if the raw hash were 0.
  EXPECT_TRUE(ctx.valid());
}

}  // namespace
}  // namespace viprof

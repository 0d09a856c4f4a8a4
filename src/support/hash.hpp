// The one home for the project's non-cryptographic hash primitives.
//
// Every crc-framed text format (sample logs, code maps, object maps, store
// segments, manifests, the service snapshot) checksums with the word-wise
// xxh32(), seeded with a per-file key (framed_text.hpp, format v2), and so
// does the wire frame trailer (seed 0). 32-bit FNV-1a is kept only for the
// v1 readers of the files an older build may have left on disk (store
// segments and manifests). The fleet ring / trace-context layers key on
// 64-bit FNV-1a. Each constant lives here exactly once so framed-file
// byte-identity cannot drift when one copy is "fixed";
// tests/test_support_hash pins every constant below.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace viprof::support {

/// FNV-1a 32-bit hash; the line/file checksum of framed-text format v1,
/// which only the store's segment and manifest readers still accept. Not
/// cryptographic — it only has to catch torn writes and bit rot, like the
/// crc fields in real trace formats.
inline std::uint32_t fnv1a(const char* data, std::size_t size) {
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x01000193u;
  }
  return h;
}

inline std::uint32_t fnv1a(const std::string& s) { return fnv1a(s.data(), s.size()); }

/// XXH32, from the published xxHash algorithm: four 32-bit lanes over
/// 16-byte stripes (started from the seed), then 4-byte and 1-byte tail
/// steps and the avalanche. The wire frame checksum (service/wire.cpp, seed
/// 0) and, seeded with a per-file key, the checksum of framed-text format
/// v2. Like FNV-1a it detects every single-byte change: each lane round,
/// tail step and avalanche step is a bijection of the state (odd
/// multipliers, rotations, xor-shifts), so two inputs of one length that
/// differ in one byte never collide under one seed. It reads a word where
/// FNV-1a reads a byte: 0.21–0.23 ns/B against 1.67–1.70 ns/B over an
/// 11.8 KB frame (4-vCPU Xeon, g++ 12 -O2).
inline std::uint32_t xxh32(const char* data, std::size_t size, std::uint32_t seed = 0) {
  constexpr std::uint32_t kP1 = 0x9e3779b1u;
  constexpr std::uint32_t kP2 = 0x85ebca77u;
  constexpr std::uint32_t kP3 = 0xc2b2ae3du;
  constexpr std::uint32_t kP4 = 0x27d4eb2fu;
  constexpr std::uint32_t kP5 = 0x165667b1u;
  const auto read32 = [](const char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);  // unaligned-safe; the format is little-endian
    if constexpr (std::endian::native == std::endian::big) {
      v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
    }
    return v;
  };
  const auto round = [](std::uint32_t acc, std::uint32_t lane) {
    return std::rotl(acc + lane * kP2, 13) * kP1;
  };
  const char* p = data;
  const char* const end = data + size;
  std::uint32_t h;
  if (size >= 16) {
    std::uint32_t v1 = seed + kP1 + kP2;
    std::uint32_t v2 = seed + kP2;
    std::uint32_t v3 = seed;
    std::uint32_t v4 = seed - kP1;
    for (const char* const limit = end - 16; p <= limit; p += 16) {
      v1 = round(v1, read32(p));
      v2 = round(v2, read32(p + 4));
      v3 = round(v3, read32(p + 8));
      v4 = round(v4, read32(p + 12));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
  } else {
    h = seed + kP5;
  }
  h += static_cast<std::uint32_t>(size);
  for (; end - p >= 4; p += 4) h = std::rotl(h + read32(p) * kP3, 17) * kP4;
  for (; p < end; ++p) h = std::rotl(h + static_cast<unsigned char>(*p) * kP5, 11) * kP1;
  h ^= h >> 15;
  h *= kP2;
  h ^= h >> 13;
  h *= kP3;
  h ^= h >> 16;
  return h;
}

/// Raw FNV-1a 64-bit. Deterministic across shards/runs — the trace-context
/// minting hash. Note the weak avalanche: strings differing only in a
/// trailing character land on neighbouring hashes; pair with fmix64() when
/// the distribution matters (consistent-hash rings).
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;  // 0xcbf29ce484222325
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // 0x100000001b3
  }
  return h;
}

/// MurmurHash3's 64-bit finalizer: full avalanche over a raw hash so that
/// neighbouring inputs spread across the whole 64-bit space.
inline std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace viprof::support

// Binary images: executables, shared libraries, the kernel, the JVM boot
// image, and anonymous (JIT heap) regions.
//
// OProfile attributes a sample to (image, symbol); which symbols are
// *visible* depends on the tool: a stripped library reports "(no symbols)",
// the Jikes boot image is opaque to stock OProfile but readable by VIProf
// via its RVM.map. The registry owns all images; everything else refers to
// them by id.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "os/symbol_table.hpp"
#include "support/interner.hpp"

namespace viprof::os {

using ImageId = std::uint32_t;
inline constexpr ImageId kInvalidImage = ~0u;

enum class ImageKind : std::uint8_t {
  kExecutable,
  kSharedLib,
  kKernel,
  kBootImage,  // JVM boot image (RVM.code.image); symbols live in RVM.map
  kAnon,       // anonymous mapping (JIT heap) — no file, no symbols
};

inline const char* to_string(ImageKind kind) {
  switch (kind) {
    case ImageKind::kExecutable: return "executable";
    case ImageKind::kSharedLib:  return "shared-lib";
    case ImageKind::kKernel:     return "kernel";
    case ImageKind::kBootImage:  return "boot-image";
    case ImageKind::kAnon:       return "anon";
  }
  return "unknown";
}

class Image {
 public:
  Image(ImageId id, std::string_view name, ImageKind kind, std::uint64_t size,
        bool stripped = false)
      : id_(id), name_(name), kind_(kind), size_(size), stripped_(stripped) {}

  ImageId id() const { return id_; }
  support::Name name() const { return name_; }
  ImageKind kind() const { return kind_; }
  std::uint64_t size() const { return size_; }

  /// True if the on-disk file carries no symbol table ("(no symbols)") —
  /// distinct from kAnon/kBootImage whose opacity is structural.
  bool stripped() const { return stripped_; }

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

 private:
  ImageId id_;
  support::Name name_;
  ImageKind kind_;
  std::uint64_t size_;
  bool stripped_;
  SymbolTable symbols_;
};

class ImageRegistry {
 public:
  Image& create(std::string_view name, ImageKind kind, std::uint64_t size,
                bool stripped = false);

  Image& get(ImageId id);
  const Image& get(ImageId id) const;
  const Image* find_by_name(std::string_view name) const;
  std::size_t count() const { return images_.size(); }

 private:
  std::vector<std::unique_ptr<Image>> images_;
};

}  // namespace viprof::os

#include "os/image.hpp"

#include "support/check.hpp"

namespace viprof::os {

Image& ImageRegistry::create(std::string_view name, ImageKind kind, std::uint64_t size,
                             bool stripped) {
  const auto id = static_cast<ImageId>(images_.size());
  images_.push_back(std::make_unique<Image>(id, name, kind, size, stripped));
  return *images_.back();
}

Image& ImageRegistry::get(ImageId id) {
  VIPROF_CHECK(id < images_.size());
  return *images_[id];
}

const Image& ImageRegistry::get(ImageId id) const {
  VIPROF_CHECK(id < images_.size());
  return *images_[id];
}

const Image* ImageRegistry::find_by_name(std::string_view name) const {
  for (const auto& img : images_)
    if (img->name() == name) return img.get();
  return nullptr;
}

}  // namespace viprof::os

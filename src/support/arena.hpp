// Bump-allocated batch arena (DESIGN.md §14).
//
// The service ingest hot path used to pay one heap allocation (and one
// free) per decoded sample vector per batch; under concurrent ingest those
// allocations serialize in the allocator. An Arena hands out pointers from
// large recycled blocks with a pointer bump, and reset() reclaims
// everything at once when the batch retires — allocation cost amortises to
// near zero and the allocator lock leaves the hot path.
//
// Blocks are not zero-filled, so pages of a block nothing has written to
// need not become resident.
//
// Lifetime rules: individual allocations are never freed; they die
// together at reset() (or destruction). A reset() invalidates every
// pointer previously handed out, so an arena must outlive everything
// decoded into it — the server enforces this by keeping the arena inside
// the Batch that owns the decoded samples and recycling it only after the
// batch has been applied.
//
// Not thread-safe: one arena belongs to one batch, touched by one thread
// at a time (receiver fills it, then exactly one worker drains it — the
// queue handoff orders the accesses).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace viprof::support {

class Arena {
 public:
  explicit Arena(std::size_t block_bytes = 64 * 1024)
      : block_bytes_(block_bytes < 256 ? 256 : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (<= alignof(std::max_align_t)).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    for (;;) {
      if (active_ > 0) {
        Block& block = blocks_[active_ - 1];
        const std::size_t at = (cursor_ + (align - 1)) & ~(align - 1);
        if (at + bytes <= block.size) {
          cursor_ = at + bytes;
          allocated_ += bytes;
          return block.data.get() + at;
        }
      }
      // Advance into the next recycled block if it fits. Otherwise a fresh
      // block (oversized requests get a dedicated one) replaces that
      // recycled block, which nothing points into this cycle — splicing in
      // front of it would keep a too-small block for good, and an arena
      // used once a cycle with growing requests would hoard one per cycle.
      if (active_ < blocks_.size() && blocks_[active_].size >= bytes + align) {
        ++active_;
        cursor_ = 0;
        continue;
      }
      const std::size_t want = bytes + align > block_bytes_ ? bytes + align : block_bytes_;
      Block fresh{std::make_unique_for_overwrite<char[]>(want), want};
      if (active_ < blocks_.size()) {
        blocks_[active_] = std::move(fresh);
      } else {
        blocks_.push_back(std::move(fresh));
      }
      ++active_;
      cursor_ = 0;
    }
  }

  template <typename T>
  T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena storage is raw bytes: no destructors run at reset()");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Drops every allocation, keeping the blocks for reuse.
  void reset() {
    active_ = 0;
    cursor_ = 0;
    allocated_ = 0;
  }

  /// Live bytes handed out since the last reset().
  std::size_t bytes_allocated() const { return allocated_; }

  /// Total block storage held (survives reset()).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  const std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // blocks_[0..active_) are in use this cycle
  std::size_t cursor_ = 0;  // bump offset into blocks_[active_ - 1]
  std::size_t allocated_ = 0;
};

/// Growable array of trivially-copyable elements backed by an Arena.
/// Growth copies into a bigger arena block and abandons the old one to the
/// arena (reclaimed wholesale at reset()). Copying the vector copies the
/// view, not the elements — the arena stays the single owner.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ArenaVector() = default;
  explicit ArenaVector(Arena& arena) : arena_(&arena) {}

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) grow_to(capacity);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow_to(capacity_ == 0 ? 64 : capacity_ * 2);
    data_[size_++] = value;
  }

  void clear() { size_ = 0; }

  /// Keeps the first `size` elements (no-op when already that short).
  void truncate(std::size_t size) {
    if (size < size_) size_ = size;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void grow_to(std::size_t capacity) {
    T* grown = arena_->template alloc_array<T>(capacity);
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace viprof::support

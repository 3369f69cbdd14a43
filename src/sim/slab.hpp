// Index-addressed object pool with a LIFO free list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pga::sim {

/// Reusable records addressed by 32-bit slot numbers. acquire() hands out
/// the most recently released slot (LIFO keeps the hot records in cache)
/// or a fresh one; release() returns a slot for reuse. Records keep
/// whatever state they were released with — a caller that acquires a slot
/// overwrites every field it reads.
///
/// Storage is a list of fixed-size chunks, so growing never moves a record
/// and never holds two copies of the table at once (a doubling vector
/// would, at the peak). A reference from operator[] stays valid until its
/// slot is released.
///
/// Re-entrancy rule: a released slot is the next one acquire() returns.
/// Code that runs a callback which may acquire (an event action, a
/// completion callback) moves what it needs out of the record and releases
/// the slot first, so the callback can reuse it.
template <typename T>
class Slab {
 public:
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (size_ == chunks_.size() * kChunk) add_chunk();
    return size_++;
  }

  void release(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] T& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// Allocates storage for `slots` records up front, so that many live
  /// slots need no further allocation.
  void reserve(std::size_t slots) {
    chunks_.reserve((slots + kChunk - 1) / kChunk);
    while (chunks_.size() * kChunk < slots) add_chunk();
    free_.reserve(slots);
  }

 private:
  static constexpr std::uint32_t kChunk = 1024;

  void add_chunk() { chunks_.push_back(std::make_unique<T[]>(kChunk)); }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;  ///< slots ever handed out
  std::vector<std::uint32_t> free_;
};

}  // namespace pga::sim

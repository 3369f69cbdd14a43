#include "wms/id_table.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>

#include "common/error.hpp"

namespace pga::wms {

namespace {
constexpr std::size_t kMinBlockBytes = 4096;
constexpr std::size_t kMinSlots = 64;

std::size_t hash_of(std::string_view id) {
  return std::hash<std::string_view>{}(id);
}
}  // namespace

std::string_view IdTable::store(std::string_view id) {
  if (blocks_.empty() || block_used_ + id.size() > block_capacity_) {
    // New block: doubles with the arena so a million ids need ~20 blocks.
    std::size_t bytes = std::max({kMinBlockBytes, next_block_bytes_,
                                  block_capacity_ * 2, id.size()});
    next_block_bytes_ = 0;
    blocks_.push_back(std::make_unique<char[]>(bytes));
    block_capacity_ = bytes;
    block_used_ = 0;
  }
  char* dst = blocks_.back().get() + block_used_;
  std::memcpy(dst, id.data(), id.size());
  block_used_ += id.size();
  arena_bytes_ += id.size();
  return {dst, id.size()};
}

void IdTable::rehash(std::size_t slot_count) {
  std::vector<std::uint32_t> slots(slot_count, kInvalid);
  std::vector<std::size_t> hashes(slot_count);
  const std::size_t mask = slot_count - 1;
  for (std::uint32_t handle = 0; handle < names_.size(); ++handle) {
    const std::size_t hash = hash_of(names_[handle]);
    std::size_t pos = hash & mask;
    while (slots[pos] != kInvalid) pos = (pos + 1) & mask;
    slots[pos] = handle;
    hashes[pos] = hash;
  }
  slots_ = std::move(slots);
  slot_hashes_ = std::move(hashes);
}

std::uint32_t IdTable::intern(std::string_view id) {
  // Keep load factor under 3/4 so probe chains stay short.
  if ((names_.size() + 1) * 4 > slots_.size() * 3) {
    rehash(std::max(kMinSlots, slots_.size() * 2));
  }
  const std::size_t mask = slots_.size() - 1;
  const std::size_t hash = hash_of(id);
  std::size_t pos = hash & mask;
  while (slots_[pos] != kInvalid) {
    if (slot_hashes_[pos] == hash && names_[slots_[pos]] == id) {
      return slots_[pos];
    }
    pos = (pos + 1) & mask;
  }
  if (names_.size() >= static_cast<std::size_t>(kInvalid)) {
    throw common::InvalidArgument("IdTable: more than 2^32-1 distinct ids");
  }
  const auto handle = static_cast<std::uint32_t>(names_.size());
  names_.push_back(store(id));
  slots_[pos] = handle;
  slot_hashes_[pos] = hash;
  return handle;
}

std::uint32_t IdTable::find(std::string_view id) const {
  if (slots_.empty()) return kInvalid;
  const std::size_t mask = slots_.size() - 1;
  const std::size_t hash = hash_of(id);
  std::size_t pos = hash & mask;
  while (slots_[pos] != kInvalid) {
    if (slot_hashes_[pos] == hash && names_[slots_[pos]] == id) {
      return slots_[pos];
    }
    pos = (pos + 1) & mask;
  }
  return kInvalid;
}

void IdTable::throw_unknown(std::uint32_t handle) {
  throw common::InvalidArgument("IdTable: unknown handle " + std::to_string(handle));
}

void IdTable::reserve(std::size_t ids, std::size_t bytes) {
  names_.reserve(ids);
  std::size_t slot_count = kMinSlots;
  while (slot_count * 3 < ids * 4) slot_count <<= 1;  // final load <= 3/4
  if (slot_count > slots_.size()) rehash(slot_count);
  if (bytes > block_capacity_ - std::min(block_used_, block_capacity_)) {
    next_block_bytes_ = bytes;
  }
}

}  // namespace pga::wms

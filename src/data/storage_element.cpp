#include "data/storage_element.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pga::data {

StorageElement::StorageElement(StorageElementConfig config)
    : config_(std::move(config)) {
  if (config_.site.empty()) {
    throw common::InvalidArgument("StorageElement: empty site name");
  }
  // Written so that NaN fails too; an infinite bandwidth would price every
  // transfer at zero seconds.
  const auto usable = [](double bps) { return bps > 0 && std::isfinite(bps); };
  if (!usable(config_.bandwidth_in_bps) || !usable(config_.bandwidth_out_bps)) {
    throw common::InvalidArgument("StorageElement: bandwidth must be finite and > 0");
  }
  if (config_.transfer_slots == 0) {
    throw common::InvalidArgument("StorageElement: transfer_slots must be >= 1");
  }
}

bool StorageElement::holds(const std::string& lfn) const {
  return files_.count(lfn) != 0;
}

std::uint64_t StorageElement::held_bytes(const std::string& lfn) const {
  const auto it = files_.find(lfn);
  return it == files_.end() ? 0 : it->second.bytes;
}

bool StorageElement::store(const std::string& lfn, std::uint64_t bytes) {
  const auto it = files_.find(lfn);
  const bool existed = it != files_.end();
  const std::uint64_t previous = existed ? it->second.bytes : 0;
  std::uint64_t would_use = used_ - previous + bytes;
  if (config_.capacity_bytes > 0 && would_use > config_.capacity_bytes) {
    if (!config_.evict_lru || bytes > config_.capacity_bytes) return false;
    // Drop least-recently-used victims (never the LFN being stored —
    // overwrite accounting already reclaimed its old bytes) until it fits.
    // The victim scan is O(n) but deterministic: smallest seq wins, and
    // seq ties are impossible because every store/touch gets a fresh tick.
    while (would_use > config_.capacity_bytes) {
      auto victim = files_.end();
      for (auto cur = files_.begin(); cur != files_.end(); ++cur) {
        if (cur->first == lfn) continue;
        if (victim == files_.end() || cur->second.seq < victim->second.seq) {
          victim = cur;
        }
      }
      if (victim == files_.end()) return false;  // nothing left to evict
      used_ -= victim->second.bytes;
      would_use -= victim->second.bytes;
      const std::string evicted = victim->first;
      const std::uint64_t evicted_bytes = victim->second.bytes;
      files_.erase(victim);
      emit(StorageEventType::kCacheEvicted, evicted, evicted_bytes);
    }
  }
  files_[lfn] = FileInfo{bytes, ++seq_};
  used_ = would_use;
  if (!existed) emit(StorageEventType::kFileCreated, lfn, bytes);
  emit(StorageEventType::kFileClosed, lfn, bytes);
  return true;
}

void StorageElement::evict(const std::string& lfn) {
  const auto it = files_.find(lfn);
  if (it == files_.end()) return;
  const std::uint64_t bytes = it->second.bytes;
  used_ -= bytes;
  files_.erase(it);
  emit(StorageEventType::kFileDeleted, lfn, bytes);
}

void StorageElement::touch(const std::string& lfn) {
  const auto it = files_.find(lfn);
  if (it == files_.end()) return;
  it->second.seq = ++seq_;
}

std::uint64_t StorageElement::free_bytes() const {
  if (config_.capacity_bytes == 0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return config_.capacity_bytes > used_ ? config_.capacity_bytes - used_ : 0;
}

void StorageElement::acquire_slot() {
  if (!slot_available()) {
    throw common::WorkflowError("StorageElement " + config_.site +
                                ": no transfer slot available");
  }
  ++active_transfers_;
}

void StorageElement::release_slot() {
  if (active_transfers_ == 0) {
    throw common::WorkflowError("StorageElement " + config_.site +
                                ": release_slot without acquire");
  }
  --active_transfers_;
}

void StorageElement::emit(StorageEventType type, const std::string& lfn,
                          std::uint64_t bytes) {
  if (events_ == nullptr) return;
  StorageEvent event;
  event.type = type;
  event.site = config_.site;
  event.lfn = lfn;
  event.bytes = bytes;
  events_->emit(event);
}

}  // namespace pga::data

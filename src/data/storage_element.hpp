// Per-site storage elements — the data layer's model of a site's scratch
// or gridftp endpoint (CERN EOS being the production-scale exemplar): a
// byte capacity, asymmetric in/out bandwidth, and a bounded number of
// concurrent transfer slots. The TransferManager owns one element per
// site and schedules transfers against their slots and bandwidths.
//
// Elements optionally publish typed StorageEvents (create/closew/delete/
// evict, mirroring EOS) into a StorageEventBus — the stream the trigger
// subsystem chains workflows off — and can run a deterministic LRU
// eviction policy on bounded capacity instead of rejecting stores.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "data/storage_events.hpp"

namespace pga::data {

/// Tunables for one site's storage element.
struct StorageElementConfig {
  std::string site;                   ///< owning site ("local", "osg", ...)
  std::uint64_t capacity_bytes = 0;   ///< 0 = unbounded scratch
  double bandwidth_in_bps = 100e6;    ///< sustained ingest bandwidth
  double bandwidth_out_bps = 100e6;   ///< sustained serving bandwidth
  std::size_t transfer_slots = 4;     ///< concurrent transfers (in + out)
  /// When a bounded element lacks space for a store, evict least-recently-
  /// used files (oldest store/touch first) until it fits instead of
  /// rejecting the store. Off by default: the pre-existing reject-on-full
  /// behavior stays byte-identical.
  bool evict_lru = false;
};

/// One site's storage: a set of held files plus transfer-slot accounting.
/// Purely bookkeeping — durations and queuing live in TransferManager, so
/// this class stays deterministic and trivially testable.
class StorageElement {
 public:
  explicit StorageElement(StorageElementConfig config);

  [[nodiscard]] const std::string& site() const { return config_.site; }
  [[nodiscard]] const StorageElementConfig& config() const { return config_; }

  /// Whether the element currently holds `lfn`.
  [[nodiscard]] bool holds(const std::string& lfn) const;
  /// Bytes held for `lfn` (0 when not held).
  [[nodiscard]] std::uint64_t held_bytes(const std::string& lfn) const;
  /// Records `lfn` as held (replacing any previous size). Returns false —
  /// and stores nothing — when a bounded element lacks the free space;
  /// with `evict_lru` set, least-recently-used files are dropped first
  /// (each emitting kCacheEvicted) and the store only fails when the file
  /// is larger than the whole capacity. A successful store emits
  /// kFileCreated on first store of the LFN, then kFileClosed always.
  bool store(const std::string& lfn, std::uint64_t bytes);
  /// Drops `lfn` if held (no-op otherwise); emits kFileDeleted when held.
  void evict(const std::string& lfn);
  /// Marks `lfn` as recently used for LRU purposes (no-op when not held).
  void touch(const std::string& lfn);

  /// Attaches the event stream (nullptr detaches). The bus is borrowed
  /// and must outlive the element.
  void set_event_sink(StorageEventBus* bus) { events_ = bus; }

  [[nodiscard]] std::uint64_t used_bytes() const { return used_; }
  /// Free space; unbounded elements report uint64 max.
  [[nodiscard]] std::uint64_t free_bytes() const;
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }

  /// Transfer-slot accounting (one slot per active transfer touching this
  /// element, whichever direction).
  [[nodiscard]] bool slot_available() const {
    return active_transfers_ < config_.transfer_slots;
  }
  void acquire_slot();
  void release_slot();
  [[nodiscard]] std::size_t active_transfers() const { return active_transfers_; }

 private:
  struct FileInfo {
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;  ///< last store/touch tick, for LRU ordering
  };

  void emit(StorageEventType type, const std::string& lfn, std::uint64_t bytes);

  StorageElementConfig config_;
  std::map<std::string, FileInfo> files_;  ///< lfn -> info
  std::uint64_t used_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t active_transfers_ = 0;
  StorageEventBus* events_ = nullptr;
};

}  // namespace pga::data

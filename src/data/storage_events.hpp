// The data layer's typed storage-event stream.
//
// Mirrors the CERN EOS Work Flow Engine model: every observable thing a
// StorageElement does — a file written for the first time, a write
// completing (every successful store, EOS's "closew"), a deletion, an
// LRU eviction on a bounded element — is published as one StorageEvent
// on a StorageEventBus. The trigger subsystem (src/trigger/) subscribes
// to this stream and chains follow-on workflows off it; tests subscribe
// to pin the edge-case sequences.
//
// This composes with the PR-2 wms::EngineEvent model rather than reusing
// it: engine events narrate job lifecycle, storage events narrate file
// lifecycle, and the two streams share the same observer discipline
// (synchronous fan-out, borrowed observers, string_views valid only
// during the callback).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/event_queue.hpp"

namespace pga::data {

/// What happened to a file on a storage element.
enum class StorageEventType {
  kFileCreated,   ///< first store of this LFN on the element (EOS sync::create)
  kFileClosed,    ///< a store completed — fires on EVERY successful store,
                  ///< including overwrites (EOS closew); triggers key off this
  kFileDeleted,   ///< explicit evict()/delete of a held LFN (EOS sync::delete)
  kCacheEvicted,  ///< LRU victim dropped to make room on a bounded element
};

/// Short label ("CREATE", "CLOSEW", ...) in EOS's spirit, for logs/tests.
const char* storage_event_name(StorageEventType type);

/// One storage event. `time` is the shared simulation clock at emission
/// (0 when the bus has no clock attached). The string_views point into
/// element-owned storage and are valid only during the observer callback;
/// observers that keep text must copy it.
struct StorageEvent {
  StorageEventType type = StorageEventType::kFileCreated;
  double time = 0;
  std::string_view site;  ///< element the event happened on
  std::string_view lfn;   ///< logical file name
  std::uint64_t bytes = 0;
};

/// Observer interface. Callbacks run synchronously on the simulation
/// thread, in emission order; implementations must not mutate the element
/// that emitted the event from inside the callback.
class StorageObserver {
 public:
  virtual ~StorageObserver() = default;
  virtual void on_storage_event(const StorageEvent& event) = 0;
};

/// A plain synchronous fan-out bus, stamped with the shared simulation
/// clock. Observers are borrowed, not owned; the clock (if any) must
/// outlive the bus.
class StorageEventBus {
 public:
  StorageEventBus() = default;
  explicit StorageEventBus(const sim::EventQueue* clock) : clock_(clock) {}

  void subscribe(StorageObserver* observer);
  /// Stamps `event.time` from the attached clock (if any) and fans out.
  void emit(StorageEvent event);

  [[nodiscard]] std::size_t observer_count() const { return observers_.size(); }

 private:
  const sim::EventQueue* clock_ = nullptr;
  std::vector<StorageObserver*> observers_;
};

}  // namespace pga::data

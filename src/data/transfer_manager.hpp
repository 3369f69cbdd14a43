// Bandwidth-modeled transfer scheduling over per-site storage elements.
//
// Stage-in/stage-out in the stock model is a flat cost hint; here each
// transfer is a discrete event: it queues for a slot on both endpoints,
// runs for latency + bytes / min(source out-bandwidth, dest in-bandwidth)
// simulated seconds, can fail (seeded draw) and retries with a fixed
// backoff until its retry budget is spent. Replica selection prefers a
// same-site copy, then the registered source with the largest serving
// bandwidth — the policy a Pegasus replica selector would apply.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "data/storage_element.hpp"
#include "sim/event_queue.hpp"
#include "wms/catalog.hpp"

namespace pga::data {

/// Tunables shared by every transfer.
struct TransferConfig {
  double latency_seconds = 2.0;      ///< per-transfer setup cost (handshake)
  double failure_probability = 0.0;  ///< per-attempt chance of a failed copy
  std::size_t max_retries = 3;       ///< extra attempts after the first
  double retry_backoff_seconds = 30; ///< cool-off before re-queuing a failure
  std::uint64_t seed = 11;           ///< failure-draw stream
};

/// Outcome of one logical transfer (after retries, if any).
struct TransferResult {
  std::string lfn;
  std::string source_site;
  std::string dest_site;
  std::uint64_t bytes = 0;
  double submit_time = 0;   ///< when the transfer was requested
  double start_time = 0;    ///< when the first attempt got its slots
  double end_time = 0;      ///< when it finished (or exhausted retries)
  std::size_t attempts = 0; ///< tries consumed (1 = clean first try)
  bool success = false;
  std::string failure;      ///< e.g. "transfer failed" when !success
};

/// Fires exactly once per transfer() call.
using TransferCallback = std::function<void(const TransferResult&)>;

/// Schedules transfers between registered StorageElements on the shared
/// simulation event queue. Deterministic: a fixed (config, seed) and call
/// sequence replays byte-identically.
class TransferManager {
 public:
  /// `queue` is the experiment's clock; it must outlive the manager.
  TransferManager(sim::EventQueue& queue, TransferConfig config = {});

  /// Registers a site's storage element. Re-adding a site replaces its
  /// element, which throws InvalidArgument while any transfer is
  /// outstanding (queued, in flight or cooling before a retry): requests
  /// hold their endpoints' elements from transfer() to completion.
  void add_element(StorageElementConfig config);
  [[nodiscard]] bool has_element(const std::string& site) const;
  /// The site's element, or nullptr when none is registered: one lookup
  /// for callers that would otherwise pair has_element() with element().
  [[nodiscard]] const StorageElement* find_element(const std::string& site) const;

  /// Attaches a storage-event stream to every registered element, and to
  /// every element registered or auto-created afterwards (nullptr
  /// detaches). The bus is borrowed and must outlive the manager.
  void set_event_bus(StorageEventBus* bus);
  [[nodiscard]] StorageEventBus* event_bus() const { return event_bus_; }
  /// Throws InvalidArgument for unregistered sites.
  [[nodiscard]] StorageElement& element(const std::string& site);
  [[nodiscard]] const StorageElement& element(const std::string& site) const;

  /// Replica selection for staging `lfn` to `dest_site`: the same-site
  /// replica with the smallest pfn; else, among replicas whose site has a
  /// registered element, the one with the largest out-bandwidth (smallest
  /// (site, pfn) on ties); else the catalog-wide smallest (site, pfn).
  [[nodiscard]] std::optional<wms::Replica> select_source(
      const wms::ReplicaCatalog& catalog, const std::string& lfn,
      const std::string& dest_site) const;

  /// Queues one transfer. Unregistered endpoints are auto-registered with
  /// default element configs so callers can stage against sparse site
  /// catalogs. The callback fires via the event queue after the transfer
  /// succeeds or exhausts its retries.
  void transfer(const std::string& lfn, std::uint64_t bytes,
                const std::string& source_site, const std::string& dest_site,
                TransferCallback on_complete);

  /// Modeled duration of one clean attempt (latency + bandwidth term).
  [[nodiscard]] double duration_for(std::uint64_t bytes, const std::string& source_site,
                                    const std::string& dest_site) const;

  [[nodiscard]] std::size_t queued() const { return waiting_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// Telemetry since construction.
  struct Stats {
    std::uint64_t bytes_moved = 0;  ///< successfully transferred payload
    std::size_t completed = 0;      ///< transfers that succeeded
    std::size_t failed = 0;         ///< transfers that exhausted retries
    std::size_t retries = 0;        ///< failed attempts that re-queued
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Request {
    std::string lfn;
    std::uint64_t bytes = 0;
    std::string source_site;
    std::string dest_site;
    /// Endpoint elements, resolved once in transfer(). elements_ is a
    /// std::map, so they stay put while other sites are added, and
    /// add_element() refuses to replace one while a request is outstanding.
    StorageElement* source = nullptr;
    StorageElement* dest = nullptr;
    TransferCallback on_complete;
    double submit_time = 0;
    double first_start = -1;  ///< <0 until the first attempt starts
    std::size_t attempts = 0;
  };

  StorageElement& ensure_element(const std::string& site);
  /// Starts every queued request whose endpoints have free slots. Scans
  /// past blocked requests so one saturated site pair cannot head-of-line
  /// block transfers between idle sites.
  void pump();
  void start(std::shared_ptr<Request> request);
  /// duration_for() on resolved endpoints; nullptr = unregistered site.
  [[nodiscard]] double attempt_seconds(std::uint64_t bytes,
                                       const StorageElement* source,
                                       const StorageElement* dest,
                                       bool same_site) const;
  void finish(const std::shared_ptr<Request>& request, bool success);

  sim::EventQueue& queue_;
  TransferConfig config_;
  common::Rng rng_;
  std::map<std::string, StorageElement> elements_;
  StorageEventBus* event_bus_ = nullptr;
  std::deque<std::shared_ptr<Request>> waiting_;
  std::size_t in_flight_ = 0;
  std::size_t outstanding_ = 0;  ///< transfer() calls not yet finished
  Stats stats_;
};

/// Registers one storage element per site of `sites`, moving data at the
/// site's stage bandwidth both ways, plus the submit host ("local"); every
/// element gets `transfer_slots` concurrent transfers.
void add_site_elements(TransferManager& transfers, const wms::SiteCatalog& sites,
                       std::size_t transfer_slots);

}  // namespace pga::data

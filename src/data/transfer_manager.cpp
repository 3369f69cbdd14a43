#include "data/transfer_manager.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"

namespace pga::data {

using common::InvalidArgument;

TransferManager::TransferManager(sim::EventQueue& queue, TransferConfig config)
    : queue_(queue), config_(config), rng_(config.seed) {
  if (config_.latency_seconds < 0) {
    throw InvalidArgument("TransferManager: latency must be >= 0");
  }
  if (config_.failure_probability < 0 || config_.failure_probability >= 1.0) {
    throw InvalidArgument("TransferManager: failure_probability must be in [0,1)");
  }
  if (config_.retry_backoff_seconds < 0) {
    throw InvalidArgument("TransferManager: retry backoff must be >= 0");
  }
}

void TransferManager::add_element(StorageElementConfig config) {
  const std::string site = config.site;
  if (outstanding_ > 0 && elements_.count(site) != 0) {
    throw InvalidArgument("TransferManager: cannot replace the element of site " +
                          site + " while transfers are outstanding");
  }
  elements_.erase(site);
  auto it = elements_.emplace(site, StorageElement(std::move(config))).first;
  it->second.set_event_sink(event_bus_);
}

void TransferManager::set_event_bus(StorageEventBus* bus) {
  event_bus_ = bus;
  for (auto& [site, element] : elements_) element.set_event_sink(bus);
}

bool TransferManager::has_element(const std::string& site) const {
  return elements_.count(site) != 0;
}

StorageElement& TransferManager::element(const std::string& site) {
  const auto it = elements_.find(site);
  if (it == elements_.end()) {
    throw InvalidArgument("TransferManager: no storage element for site " + site);
  }
  return it->second;
}

const StorageElement* TransferManager::find_element(const std::string& site) const {
  const auto it = elements_.find(site);
  return it == elements_.end() ? nullptr : &it->second;
}

const StorageElement& TransferManager::element(const std::string& site) const {
  const auto it = elements_.find(site);
  if (it == elements_.end()) {
    throw InvalidArgument("TransferManager: no storage element for site " + site);
  }
  return it->second;
}

StorageElement& TransferManager::ensure_element(const std::string& site) {
  const auto it = elements_.find(site);
  if (it != elements_.end()) return it->second;
  StorageElementConfig config;
  config.site = site;
  auto created = elements_.emplace(site, StorageElement(std::move(config))).first;
  created->second.set_event_sink(event_bus_);
  return created->second;
}

std::optional<wms::Replica> TransferManager::select_source(
    const wms::ReplicaCatalog& catalog, const std::string& lfn,
    const std::string& dest_site) const {
  const auto candidates = catalog.lookup(lfn);
  if (candidates.empty()) return std::nullopt;

  const wms::Replica* local = nullptr;
  const wms::Replica* fastest = nullptr;
  double fastest_bps = -1;
  const wms::Replica* any = nullptr;
  for (const auto& replica : candidates) {
    if (replica.site == dest_site && (local == nullptr || replica.pfn < local->pfn)) {
      local = &replica;
    }
    const auto it = elements_.find(replica.site);
    if (it != elements_.end()) {
      const double bps = it->second.config().bandwidth_out_bps;
      if (fastest == nullptr || bps > fastest_bps ||
          (bps == fastest_bps && std::tie(replica.site, replica.pfn) <
                                     std::tie(fastest->site, fastest->pfn))) {
        fastest = &replica;
        fastest_bps = bps;
      }
    }
    if (any == nullptr || std::tie(replica.site, replica.pfn) <
                              std::tie(any->site, any->pfn)) {
      any = &replica;
    }
  }
  if (local != nullptr) return *local;
  if (fastest != nullptr) return *fastest;
  return *any;
}

double TransferManager::duration_for(std::uint64_t bytes,
                                     const std::string& source_site,
                                     const std::string& dest_site) const {
  return attempt_seconds(bytes, find_element(source_site), find_element(dest_site),
                         source_site == dest_site);
}

double TransferManager::attempt_seconds(std::uint64_t bytes,
                                        const StorageElement* source,
                                        const StorageElement* dest,
                                        bool same_site) const {
  if (same_site) return config_.latency_seconds;
  double bps = StorageElementConfig{}.bandwidth_out_bps;
  if (source != nullptr && dest != nullptr) {
    bps = std::min(source->config().bandwidth_out_bps,
                   dest->config().bandwidth_in_bps);
  } else if (source != nullptr) {
    bps = source->config().bandwidth_out_bps;
  } else if (dest != nullptr) {
    bps = dest->config().bandwidth_in_bps;
  }
  return config_.latency_seconds + static_cast<double>(bytes) / bps;
}

void TransferManager::transfer(const std::string& lfn, std::uint64_t bytes,
                               const std::string& source_site,
                               const std::string& dest_site,
                               TransferCallback on_complete) {
  if (!on_complete) throw InvalidArgument("TransferManager: null callback");
  auto request = std::make_shared<Request>();
  request->lfn = lfn;
  request->bytes = bytes;
  request->source_site = source_site;
  request->dest_site = dest_site;
  request->source = &ensure_element(source_site);
  request->dest = &ensure_element(dest_site);
  request->on_complete = std::move(on_complete);
  request->submit_time = queue_.now();
  ++outstanding_;
  waiting_.push_back(std::move(request));
  pump();
}

void TransferManager::pump() {
  // Scan-first-dispatchable: a request blocked on a busy endpoint must not
  // starve transfers between idle sites behind it. FIFO order still wins
  // among requests contending for the same endpoints. start() only takes
  // slots and never touches waiting_, so every request ahead of a started
  // one stays blocked: the scan resumes where the started one left.
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    const Request& request = **it;
    const bool dispatchable =
        request.dest->slot_available() &&
        (request.source == request.dest || request.source->slot_available());
    if (!dispatchable) {
      ++it;
      continue;
    }
    std::shared_ptr<Request> started = std::move(*it);
    it = waiting_.erase(it);
    start(std::move(started));
  }
}

void TransferManager::start(std::shared_ptr<Request> request) {
  const bool same_site = request->source == request->dest;
  if (!same_site) request->source->acquire_slot();
  request->dest->acquire_slot();
  // Reading from the source counts as a use for LRU recency (no-op when
  // the source doesn't hold the file or eviction is disabled).
  request->source->touch(request->lfn);
  ++in_flight_;
  ++request->attempts;
  if (request->first_start < 0) request->first_start = queue_.now();

  const double duration =
      attempt_seconds(request->bytes, request->source, request->dest, same_site);
  // Failure draw order is fixed (fail?, then partial fraction) so the RNG
  // stream — and with it the whole run — replays from the seed.
  bool failed = false;
  double elapsed = duration;
  if (config_.failure_probability > 0) {
    failed = rng_.uniform() < config_.failure_probability;
    if (failed) elapsed = rng_.uniform(0.0, duration);
  }

  queue_.schedule_in(elapsed, [this, request = std::move(request), same_site,
                               failed]() mutable {
    if (!same_site) request->source->release_slot();
    request->dest->release_slot();
    --in_flight_;
    if (!failed) {
      request->dest->store(request->lfn, request->bytes);
      finish(request, /*success=*/true);
    } else if (request->attempts <= config_.max_retries) {
      ++stats_.retries;
      queue_.schedule_in(config_.retry_backoff_seconds,
                         [this, request = std::move(request)]() mutable {
                           waiting_.push_back(std::move(request));
                           pump();
                         });
    } else {
      finish(request, /*success=*/false);
    }
    pump();
  });
}

void TransferManager::finish(const std::shared_ptr<Request>& request, bool success) {
  --outstanding_;
  TransferResult result;
  result.lfn = request->lfn;
  result.source_site = request->source_site;
  result.dest_site = request->dest_site;
  result.bytes = request->bytes;
  result.submit_time = request->submit_time;
  result.start_time = request->first_start;
  result.end_time = queue_.now();
  result.attempts = request->attempts;
  result.success = success;
  if (success) {
    stats_.bytes_moved += request->bytes;
    ++stats_.completed;
  } else {
    result.failure = "transfer failed after " + std::to_string(request->attempts) +
                     " attempts";
    ++stats_.failed;
  }
  request->on_complete(result);
}

void add_site_elements(TransferManager& transfers, const wms::SiteCatalog& sites,
                       std::size_t transfer_slots) {
  for (const auto& name : sites.names()) {
    StorageElementConfig element;
    element.site = name;
    element.bandwidth_in_bps = sites.site(name).stage_bandwidth_bps;
    element.bandwidth_out_bps = element.bandwidth_in_bps;
    element.transfer_slots = transfer_slots;
    transfers.add_element(std::move(element));
  }
  StorageElementConfig submit_host;
  submit_host.site = "local";
  submit_host.transfer_slots = transfer_slots;
  transfers.add_element(std::move(submit_host));
}

}  // namespace pga::data

// Execution platform models.
//
// A platform accepts jobs (with a CPU-seconds cost) and reports one
// *attempt result* per try via callback: queueing delay, software
// download/install overhead, execution time, and success/failure. Retries
// are the scheduler's (DAGMan's) business, exactly as in the real stack.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/slab.hpp"

namespace pga::sim {

/// One job submitted to a platform.
struct SimJob {
  std::string id;
  std::string transformation;    ///< task type, e.g. "run_cap3"
  double cpu_seconds = 0;        ///< work at speed factor 1.0
  bool needs_software_setup = false;  ///< pay install overhead on platforms
                                      ///< without a preinstalled stack
  std::uint64_t software_bytes = 0;   ///< size of the software bundle the
                                      ///< setup downloads (cache accounting)
};

/// What an install-cost model charged for one software setup.
struct InstallOutcome {
  double seconds = 0;      ///< charged install time for this attempt
  bool cache_hit = false;  ///< the node already held the bundle
};

/// Pluggable software-install cost model. The data layer's per-node
/// SoftwareCache implements this; without one attached a platform charges
/// `cold_seconds` (its own per-attempt draw) every time. Split into a
/// lookup (install) and a commit so a platform can decline to cache a
/// bundle whose install was cut short (e.g. preempted mid-download).
class InstallModel {
 public:
  virtual ~InstallModel() = default;

  /// Cost of setting up `package` on `node` when a fresh download/install
  /// would take `cold_seconds`. A hit must never cost more than the cold
  /// path. Does not mark the bundle as cached — see commit().
  virtual InstallOutcome install(const std::string& node, const std::string& package,
                                 std::uint64_t bytes, double cold_seconds) = 0;

  /// Records that the install of `package` on `node` ran to completion, so
  /// later attempts on that node can hit.
  virtual void commit(const std::string& node, const std::string& package,
                      std::uint64_t bytes) = 0;
};

/// Outcome of one attempt at running a job.
struct AttemptResult {
  std::string job_id;
  std::string transformation;
  std::string node;          ///< execution host label
  double submit_time = 0;    ///< when this attempt entered the platform
  double start_time = 0;     ///< when setup/execution began on the node
  double end_time = 0;       ///< when the attempt finished (or died)
  double wait_seconds = 0;   ///< submit -> node assignment ("Waiting Time")
  double install_seconds = 0;  ///< software download/install overhead
  double exec_seconds = 0;   ///< execution time ("Kickstart Time"); partial on failure
  bool success = false;
  bool install_cache_hit = false;  ///< software setup was served from a node cache
  std::string failure;       ///< e.g. "preempted" when !success
};

/// Callback invoked exactly once per attempt. The result is handed over by
/// rvalue so a consumer can move its strings out; a lambda taking
/// `const AttemptResult&` binds to it as well.
using AttemptCallback = std::function<void(AttemptResult&&)>;

/// One attempt as a platform holds it from submit() to its completion
/// event. Dispatch fills in the placement and timings; deliver() turns the
/// record into the AttemptResult, moving the job's strings over.
struct AttemptRecord {
  SimJob job;
  AttemptCallback on_complete;
  const std::string* node = nullptr;  ///< label owned by the platform
  const char* failure = nullptr;      ///< e.g. "preempted"; null on success
  double submit_time = 0;
  double start_time = 0;
  double end_time = 0;
  double install_seconds = 0;
  double exec_seconds = 0;
  bool install_cache_hit = false;
};

/// Abstract platform. Implementations share one EventQueue (the
/// experiment's clock) owned by the caller.
class ExecutionPlatform {
 public:
  virtual ~ExecutionPlatform() = default;

  /// Enqueues one attempt of `job`. The callback fires (via the event
  /// queue) when the attempt completes or fails. Throws InvalidArgument,
  /// before touching any platform state, when `job.cpu_seconds` is NaN,
  /// infinite or negative. Pass an rvalue job to hand its strings over.
  virtual void submit(SimJob job, AttemptCallback on_complete) = 0;

  /// Advisory blacklist hint from the scheduler: avoid placing future
  /// attempts on `node` (DAGMan steering retries away from hosts that keep
  /// failing). Platforms may ignore it, and fall back to blacklisted nodes
  /// when nothing else is available.
  virtual void avoid_node(const std::string& node) { (void)node; }

  /// Platform label ("sandhills", "osg", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Slots the platform can run concurrently (for utilization reporting).
  [[nodiscard]] virtual std::size_t slots() const = 0;

  /// Attaches an install-cost model (e.g. data::SoftwareCache). Not owned;
  /// must outlive the platform. nullptr restores the per-attempt default.
  void set_install_model(InstallModel* model) { install_model_ = model; }

 protected:
  /// Throws InvalidArgument naming `platform` unless the job's cost is a
  /// finite, non-negative number of CPU seconds.
  static void check_job(const char* platform, const SimJob& job);
  /// Throws InvalidArgument ("<platform>: <field> must be finite") when a
  /// configuration value is NaN or infinite.
  static void require_finite(const char* platform, const char* field, double value);

  /// Stores a new attempt submitted at `submit_time` and returns its slot.
  /// Scheduled events capture only {this, slot}, which std::function holds
  /// without allocating.
  std::uint32_t open_attempt(SimJob&& job, AttemptCallback&& on_complete,
                             double submit_time);
  [[nodiscard]] AttemptRecord& attempt(std::uint32_t slot) { return attempts_[slot]; }
  /// Builds the attempt's result (moving the job's id and transformation
  /// in), frees the slot, then invokes the callback — in that order, since
  /// the callback may submit again and reuse the slot.
  void deliver(std::uint32_t slot);

  InstallModel* install_model_ = nullptr;  ///< consulted for software setups

 private:
  Slab<AttemptRecord> attempts_;  ///< queued and running attempts
};

}  // namespace pga::sim

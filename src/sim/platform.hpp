// Execution platform models.
//
// A platform accepts jobs (with a CPU-seconds cost) and reports one
// *attempt result* per try to the completion sink that submitted it:
// queueing delay, software download/install overhead, execution time, and
// success/failure. Retries are the scheduler's (DAGMan's) business, exactly
// as in the real stack.
//
// Nothing crosses this boundary by name. A job goes in as the caller's
// handle plus a view of its transformation label; its result comes back
// with that handle and views of labels the platform owns (the node, the
// failure text), so an attempt allocates nothing on its way through.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/slab.hpp"

namespace pga::sim {

/// One job submitted to a platform.
struct SimJob {
  std::uint32_t job = 0;  ///< the caller's handle, echoed in AttemptResult::job
  /// Task type, e.g. "run_cap3": the package an install model prices. A
  /// view; its owner keeps it alive until the attempt completes or its
  /// sink is removed (a platform never reads it after that).
  std::string_view transformation;
  double cpu_seconds = 0;             ///< work at speed factor 1.0
  std::uint64_t software_bytes = 0;   ///< size of the software bundle the
                                      ///< setup downloads (cache accounting)
  bool needs_software_setup = false;  ///< pay install overhead on platforms
                                      ///< without a preinstalled stack
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
  virtual InstallOutcome install(std::string_view node, std::string_view package,
                                 std::uint64_t bytes, double cold_seconds) = 0;

  /// Records that the install of `package` on `node` ran to completion, so
  /// later attempts on that node can hit.
  virtual void commit(std::string_view node, std::string_view package,
                      std::uint64_t bytes) = 0;
};

/// Why an attempt failed. Platforms keep the code; the text is resolved
/// by failure_text() when the result is built.
enum class AttemptFailure : std::uint8_t {
  kNone,       ///< the attempt succeeded
  kPreempted,  ///< the resource owner reclaimed the machine mid-attempt
};

/// "preempted" for kPreempted; empty for kNone.
[[nodiscard]] std::string_view failure_text(AttemptFailure failure);

/// Outcome of one attempt at running a job. The text fields are views of
/// labels the platform owns; they stay valid while the platform lives.
struct AttemptResult {
  std::uint32_t job = 0;     ///< SimJob::job of the attempt
  std::string_view node;     ///< execution host label
  std::string_view failure;  ///< e.g. "preempted"; empty on success
  double submit_time = 0;    ///< when this attempt entered the platform
  double start_time = 0;     ///< when setup/execution began on the node
  double end_time = 0;       ///< when the attempt finished (or died)
  double wait_seconds = 0;   ///< submit -> node assignment ("Waiting Time")
  double install_seconds = 0;  ///< software download/install overhead
  double exec_seconds = 0;   ///< execution time ("Kickstart Time"); partial on failure
  bool success = false;
  bool install_cache_hit = false;  ///< software setup was served from a node cache
};

/// Receives the results of the attempts submitted under its sink id. A
/// platform calls on_attempt exactly once per attempt, from its completion
/// event; the callee may submit again.
class CompletionSink {
 public:
  virtual void on_attempt(const AttemptResult& result) = 0;

 protected:
  ~CompletionSink() = default;
};

/// A registered CompletionSink, as ExecutionPlatform::add_sink returns it.
using SinkId = std::uint32_t;

/// One attempt as a platform holds it from submit() to its completion
/// event. Dispatch fills in the placement and timings; deliver() turns the
/// record into the AttemptResult.
struct AttemptRecord {
  SimJob job;
  std::uint32_t sink = 0;             ///< SinkId the result goes to
  std::uint32_t sink_generation = 0;  ///< that sink slot's generation at submit
  std::uint32_t node = 0;             ///< index into the platform's label table
  AttemptFailure failure = AttemptFailure::kNone;
  bool install_cache_hit = false;
  double submit_time = 0;
  double start_time = 0;
  double end_time = 0;
  double install_seconds = 0;
  double exec_seconds = 0;
};

/// Abstract platform. Implementations share one EventQueue (the
/// experiment's clock) owned by the caller. Not copyable: scheduled events
/// and registered sinks hold its address.
class ExecutionPlatform {
 public:
  ExecutionPlatform() = default;
  ExecutionPlatform(const ExecutionPlatform&) = delete;
  ExecutionPlatform& operator=(const ExecutionPlatform&) = delete;
  virtual ~ExecutionPlatform() = default;

  /// Registers `sink` for the results of the attempts submitted under the
  /// returned id. The sink must stay alive until remove_sink(id).
  SinkId add_sink(CompletionSink& sink);

  /// Retires `id`. Its attempts still run to their end and free their
  /// slots, but their results are dropped (dropped_completions() counts
  /// them) and never reach a later owner of the same id; an install model
  /// is not consulted for those of them still waiting for a node. Throws
  /// InvalidArgument when `id` is not registered.
  void remove_sink(SinkId id);

  /// Enqueues one attempt of `job`; its result goes to sink `sink` from
  /// the event queue when the attempt completes or fails. Throws
  /// InvalidArgument, before touching any platform state, when the sink is
  /// not registered or `job.cpu_seconds` is NaN, infinite or negative.
  virtual void submit(SinkId sink, const SimJob& job) = 0;

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

  /// Results dropped because their sink was removed before they landed.
  [[nodiscard]] std::size_t dropped_completions() const { return dropped_; }

 protected:
  /// Throws InvalidArgument naming `platform` unless `sink` is registered
  /// and the job's cost is a finite, non-negative number of CPU seconds.
  void check_submit(const char* platform, SinkId sink, const SimJob& job) const;
  /// Throws InvalidArgument ("<platform>: <field> must be finite") when a
  /// configuration value is NaN or infinite.
  static void require_finite(const char* platform, const char* field, double value);

  /// Stores a new attempt submitted at `submit_time` and returns its slot.
  /// Scheduled events capture only {this, slot}, which std::function holds
  /// without allocating.
  std::uint32_t open_attempt(SinkId sink, const SimJob& job, double submit_time);
  [[nodiscard]] AttemptRecord& attempt(std::uint32_t slot) { return attempts_[slot]; }
  /// True while the sink that submitted `record` is registered: only then
  /// may dispatch read the job's transformation view.
  [[nodiscard]] bool sink_live(const AttemptRecord& record) const {
    return sinks_[record.sink].generation == record.sink_generation;
  }
  /// Builds the attempt's result, frees the slot, then hands the result to
  /// its sink — in that order, since the sink may submit again and reuse
  /// the slot. A retired sink's result is counted and dropped.
  void deliver(std::uint32_t slot);

  InstallModel* install_model_ = nullptr;  ///< consulted for software setups
  /// Node labels; AttemptRecord::node indexes them. Set by the derived
  /// platform to a table that lives at least as long as the platform.
  std::span<const std::string> node_labels_;

 private:
  struct Sink {
    CompletionSink* sink = nullptr;  ///< null while the slot is free
    std::uint32_t generation = 0;    ///< bumped on every removal
  };

  Slab<AttemptRecord> attempts_;  ///< queued and running attempts
  std::vector<Sink> sinks_;       ///< indexed by SinkId
  std::vector<SinkId> free_sinks_;
  std::size_t dropped_ = 0;
};

}  // namespace pga::sim

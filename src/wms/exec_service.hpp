// Execution back-ends behind one interface.
//
// The DAGMan engine is written against ExecutionService only, so the same
// workflow runs (a) for real, on a thread pool over actual files, and
// (b) simulated, on the discrete-event platform models at paper scale.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "sim/platform.hpp"
#include "wms/planner.hpp"

namespace pga::wms {

/// One attempt at one concrete job, in the service's time base. The job's
/// id and transformation are not carried: the workflow owns both, and the
/// handle names the job. `Text` is std::string_view for an attempt on its
/// way from a service to the engine (TaskAttempt) and std::string for one
/// a report keeps (RecordedAttempt).
template <typename Text>
struct BasicAttempt {
  /// ConcreteJob::index of the attempted job, echoed from submit(). The
  /// engine matches a completion to its job by this handle alone.
  std::uint32_t job = 0xFFFFFFFFu;
  bool success = false;
  Text error;
  Text node;
  double submit_time = 0;
  double end_time = 0;
  double wait_seconds = 0;     ///< "Waiting Time" (queue + match)
  double install_seconds = 0;  ///< "Download/Install Time"
  double exec_seconds = 0;     ///< "Kickstart Time" (partial on failure)
  bool install_cache_hit = false;  ///< software setup came from a node cache
  std::uint64_t transferred_bytes = 0;  ///< bytes moved by a staging attempt
  std::size_t transfer_attempts = 0;    ///< transfer tries incl. retries
};

/// An attempt as a service delivers it. `node` and `error` view text that
/// the delivering service, or the platform under it, owns and keeps for
/// its lifetime: the engine reads them while it handles the completion,
/// and whatever keeps the attempt longer copies it (record_attempt).
using TaskAttempt = BasicAttempt<std::string_view>;
/// An attempt that owns its text: a full-mode RunReport's roster entry or
/// a parsed kickstart record.
using RecordedAttempt = BasicAttempt<std::string>;

/// Copies `attempt`, text included, out of the service that delivered it.
RecordedAttempt record_attempt(const TaskAttempt& attempt);

/// Completion-pump interface. The engine calls submit() for ready jobs and
/// wait() to collect finished attempts; implementations choose their own
/// notion of time (wall seconds or simulation seconds).
class ExecutionService {
 public:
  virtual ~ExecutionService() = default;

  /// Starts one attempt of `job`. Never blocks.
  virtual void submit(const ConcreteJob& job) = 0;

  /// Returns at least one completed attempt, blocking/advancing as needed.
  /// Returns empty only when no submitted attempt is outstanding.
  virtual std::vector<TaskAttempt> wait() = 0;

  /// Like wait(), but gives up after `timeout_seconds` of this service's
  /// time, returning whatever completed (possibly nothing). Services that
  /// control their own clock (the simulator) advance it up to the deadline
  /// even with nothing outstanding, so the engine can wait out attempt
  /// timeouts and retry backoffs. The default falls back to wait(), i.e.
  /// the deadline is advisory.
  virtual std::vector<TaskAttempt> wait_for(double timeout_seconds) {
    (void)timeout_seconds;
    return wait();
  }

  /// Non-blocking harvest: returns attempts that have already completed
  /// without advancing this service's clock past "now". The cooperative
  /// stepping path (EngineInstance::step_cooperative) uses this so an
  /// external driver — the WaaS fleet controller — keeps clock ownership.
  /// The default maps to wait_for(0), which every implementation treats as
  /// "deliver what is due at exactly the current time, then return".
  virtual std::vector<TaskAttempt> poll() { return wait_for(0); }

  /// True when poll() would return nothing and change nothing, provided
  /// the shared event queue holds no event due at the current instant.
  /// Cooperative drivers (the WaaS fleet) use it to skip engines whose
  /// step would be a no-op. Must never report true while anything could
  /// come out of poll(); the default (false) is always safe, so services
  /// that run on their own clock (LocalService) are never skipped. A
  /// service that can report true must also honour set_delivery_flag.
  [[nodiscard]] virtual bool quiet() { return false; }

  /// Registers a byte the service sets to 1 whenever a completed attempt
  /// lands in its delivery buffer, so that between the caller's own calls
  /// quiet() turns false only with the byte set or with the passage of
  /// time (which next_event_time() announces). Cooperative drivers (the
  /// WaaS fleet's wake summary) read the byte instead of asking every
  /// service every round; the driver clears it. Decorators forward it to
  /// the service they wrap. The default ignores it, which is safe only
  /// together with the default quiet(). Null unregisters.
  virtual void set_delivery_flag(std::uint8_t* flag) { (void)flag; }

  /// Earliest future instant (in this service's time base) at which a
  /// poll() might yield something that no shared-event-queue event
  /// announces — e.g. a fault injector holding a delayed completion.
  /// Infinity (the default) means completions are purely event-driven.
  /// External clock owners fold this into their advance fence.
  [[nodiscard]] virtual double next_event_time() {
    return std::numeric_limits<double>::infinity();
  }

  /// Advisory hint: the scheduler blacklisted `node`; place future attempts
  /// elsewhere when possible. Default ignores it.
  virtual void avoid_node(const std::string& node) { (void)node; }

  /// Current time in this service's time base (seconds).
  [[nodiscard]] virtual double now() = 0;

  /// Human-readable back-end label.
  [[nodiscard]] virtual std::string label() const = 0;
};

/// Real execution: jobs run as C++ callables on a bounded thread pool.
///
/// The `runner` receives each ConcreteJob and performs its actual work
/// (reading/writing workspace files). Thrown exceptions become failed
/// attempts, whose error text the service keeps for its lifetime.
/// Wall-clock timings feed the same statistics as the simulator.
class LocalService final : public ExecutionService {
 public:
  using JobRunner = std::function<void(const ConcreteJob&)>;

  /// `slots`: concurrent workers. `runner`: executes one job.
  LocalService(std::size_t slots, JobRunner runner);

  void submit(const ConcreteJob& job) override;
  std::vector<TaskAttempt> wait() override;
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override;
  double now() override;
  [[nodiscard]] std::string label() const override { return "local"; }

 private:
  /// Moves everything accumulated in completed_ out. Caller holds mutex_.
  std::vector<TaskAttempt> drain_locked();

  JobRunner runner_;
  common::Stopwatch clock_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<TaskAttempt> completed_;
  /// Error texts of failed attempts; TaskAttempt::error views them. A
  /// deque never moves its elements, so the views stay valid.
  std::deque<std::string> errors_;
  std::size_t outstanding_ = 0;

  // Declared last on purpose: the pool's destructor joins its worker
  // threads, and workers touch mutex_/cv_ when they finish a job, so the
  // pool must be destroyed before (i.e. declared after) them.
  common::ThreadPool pool_;
};

/// Simulated execution on a platform model; time is the event queue's.
///
/// The service registers once with its platform as a completion sink and
/// removes itself on destruction, so the platform drops (and counts) the
/// results of attempts still running for a service that is gone. A job
/// goes to the platform as its handle and a view of its transformation;
/// results come back as handles and views of the platform's labels.
class SimService final : public ExecutionService, private sim::CompletionSink {
 public:
  /// `queue` must outlive the service and be the platform's queue; the
  /// platform must outlive the service.
  SimService(sim::EventQueue& queue, sim::ExecutionPlatform& platform);
  ~SimService() override;
  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Throws InvalidArgument naming the job when the platform rejects it.

  void submit(const ConcreteJob& job) override;
  std::vector<TaskAttempt> wait() override;
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override;
  void avoid_node(const std::string& node) override { platform_.avoid_node(node); }
  /// Completions land in completed_ only from queue events, so with none
  /// due now an empty completed_ means poll() has nothing to give.
  [[nodiscard]] bool quiet() override { return completed_.empty(); }
  void set_delivery_flag(std::uint8_t* flag) override { delivered_ = flag; }
  double now() override;
  [[nodiscard]] std::string label() const override { return platform_.name(); }

 private:
  /// Steps the event queue until a completion lands. With a deadline, stops
  /// once the next event lies past it and burns the remaining simulated
  /// time; without one, throws on deadlock (outstanding jobs, no events).
  void pump(std::optional<double> deadline);
  /// Hands completed_ over to the caller (its buffer, no element copies).
  std::vector<TaskAttempt> take_completed();
  void on_attempt(const sim::AttemptResult& result) override;

  sim::EventQueue& queue_;
  sim::ExecutionPlatform& platform_;
  sim::SinkId sink_;  ///< this service's id on platform_
  std::vector<TaskAttempt> completed_;
  /// Size of the last batch handed over; the next batch's buffer starts
  /// at that capacity instead of doubling up from one.
  std::size_t last_batch_ = 0;
  std::size_t outstanding_ = 0;
  std::uint8_t* delivered_ = nullptr;  ///< see set_delivery_flag
};

}  // namespace pga::wms

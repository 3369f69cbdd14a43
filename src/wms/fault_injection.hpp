// Deterministic fault injection for execution services.
//
// The paper's OSG runs fail in ways the campus cluster never does:
// preemption kills attempts part-way, opportunistic slots vanish, and
// per-attempt software installs stretch or stall (§III, §VI). The
// stochastic platform models reproduce those *statistically*; this module
// reproduces them *on demand*. FaultyService decorates any
// ExecutionService (LocalService or SimService alike) and applies a
// scripted FaultPlan — fail attempt k of job j, hang it forever, delay its
// completion, misreport its node — plus a seeded-random chaos mode for
// soak runs. Everything is deterministic: the same plan (and seed) against
// the same workflow produces the same attempt stream, which is what lets
// the chaos suite assert byte-identical jobstate logs across runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "wms/exec_service.hpp"

namespace pga::wms {

/// What to do to a matched attempt.
enum class FaultAction {
  kFail,         ///< report the attempt failed without running it
  kHang,         ///< swallow the attempt; it never completes
  kDelay,        ///< run it, then stretch its completion by delay_seconds
  kCorruptNode,  ///< run it, but misreport the execution node
};

/// One scripted directive. Matches a (job, attempt-index) pair; attempt
/// indices are 1-based, and attempt == 0 matches every attempt of the job.
struct FaultDirective {
  std::string job_id;
  int attempt = 0;
  FaultAction action = FaultAction::kFail;
  std::string error = "injected fault";  ///< reported error for kFail
  double delay_seconds = 0;              ///< stretch for kDelay
  std::string node;  ///< reported node for kFail / replacement for kCorruptNode
};

/// Seeded-random fault mode for soak/chaos runs. Probabilities are
/// evaluated per submission, in submission order, from one common::Rng —
/// so a fixed seed plus a deterministic engine yields a fixed fault
/// sequence. Probabilities are cumulative-checked in the order
/// fail, hang, delay, corrupt; their sum should stay <= 1.
struct ChaosConfig {
  double fail_probability = 0;
  double hang_probability = 0;
  double delay_probability = 0;
  double corrupt_probability = 0;
  double max_delay_seconds = 60;  ///< kDelay stretch is uniform in (0, max]
  std::uint64_t seed = 1;
};

/// An ordered set of scripted directives plus an optional chaos mode.
/// Scripted directives always win over chaos draws.
class FaultPlan {
 public:
  /// Fail attempt `attempt` of `job` with `error`, reported from `node`
  /// (an empty node is reported as "injected").
  FaultPlan& fail(const std::string& job, int attempt,
                  const std::string& error = "injected fault",
                  const std::string& node = "");
  /// Fail the first `k` attempts of `job` (then let it through).
  FaultPlan& fail_first(const std::string& job, int k,
                        const std::string& error = "injected fault",
                        const std::string& node = "");
  /// Fail every attempt of `job`, forever.
  FaultPlan& always_fail(const std::string& job,
                         const std::string& error = "injected fault",
                         const std::string& node = "");
  /// Hang attempt `attempt` of `job`: it is swallowed and never completes.
  FaultPlan& hang(const std::string& job, int attempt);
  /// Let attempt `attempt` of `job` run, then delay its completion.
  FaultPlan& delay(const std::string& job, int attempt, double seconds);
  /// Let attempt `attempt` of `job` run, but report it from `node`.
  FaultPlan& corrupt_node(const std::string& job, int attempt,
                          const std::string& node);
  /// Enable seeded-random chaos for submissions no directive matches.
  FaultPlan& chaos(const ChaosConfig& config);

  /// All scripted directives matching (job, attempt), in insertion order.
  [[nodiscard]] std::vector<const FaultDirective*> match(const std::string& job,
                                                         int attempt) const;
  [[nodiscard]] const std::optional<ChaosConfig>& chaos_config() const {
    return chaos_;
  }
  [[nodiscard]] bool empty() const { return directives_.empty() && !chaos_; }

 private:
  std::vector<FaultDirective> directives_;
  std::optional<ChaosConfig> chaos_;
};

/// ExecutionService decorator applying a FaultPlan.
///
/// Composition rules per submission (attempt indices counted per job):
///  * a matching kHang swallows the submission — the inner service never
///    sees it and no completion is ever delivered; only an engine attempt
///    timeout recovers from it;
///  * otherwise a matching kFail synthesizes an immediate failed attempt
///    without forwarding (a node that rejected or crashed the job);
///  * otherwise the job is forwarded, and matching kDelay / kCorruptNode
///    directives rewrite the completion on its way back (a delayed
///    completion also holds the attempt until the inner clock reaches the
///    stretched end time, so delays interact honestly with engine
///    timeouts).
///
/// Not thread-safe: call submit()/wait()/wait_for() from one thread (the
/// engine's), exactly like every other ExecutionService. Assumes at most
/// one attempt of a given job is in flight at a time, which is how the
/// DAGMan engine drives services.
///
/// Per-job state (attempt counts, pending rewrites) is indexed by the
/// job's dense handle (ConcreteJob::index, echoed back in
/// TaskAttempt::job); submit() rejects a job without one. Directives still
/// match by job id, read from the submitted job. Injected node and error
/// texts are views of the plan's strings or of static chaos labels.
class FaultyService final : public ExecutionService {
 public:
  FaultyService(ExecutionService& inner, FaultPlan plan);

  void submit(const ConcreteJob& job) override;
  std::vector<TaskAttempt> wait() override;
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override;
  /// Non-blocking: one inner harvest plus anything synthesized or newly
  /// due. The wait_for(0) default would bail on its expired deadline
  /// before ever consulting the inner service, which strands completions
  /// when an external clock owner (the WaaS fleet) pumps the queue.
  std::vector<TaskAttempt> poll() override;
  void avoid_node(const std::string& node) override { inner_.avoid_node(node); }
  /// Forwarded: what this decorator adds — synthesized failures, held
  /// completions — appears only in the caller's own submit() and poll(),
  /// or with time (next_event_time()).
  void set_delivery_flag(std::uint8_t* flag) override {
    inner_.set_delivery_flag(flag);
  }
  /// Nothing synthesized, nothing held that poll() would release now, and
  /// an inner service with nothing to deliver.
  [[nodiscard]] bool quiet() override;
  double now() override { return inner_.now(); }
  /// Delayed completions are parked in held_, invisible to any event
  /// queue; expose the earliest release so cooperative drivers (the WaaS
  /// fleet) can fence their clock advance on it.
  [[nodiscard]] double next_event_time() override {
    const double inner = inner_.next_event_time();
    return held_.empty() ? inner : std::min(inner, earliest_release());
  }
  [[nodiscard]] std::string label() const override {
    return "faulty(" + inner_.label() + ")";
  }

  // ------------------------------------------------ introspection (tests)
  [[nodiscard]] std::size_t injected_failures() const { return injected_failures_; }
  [[nodiscard]] std::size_t injected_hangs() const { return injected_hangs_; }
  [[nodiscard]] std::size_t injected_delays() const { return injected_delays_; }
  [[nodiscard]] std::size_t corrupted_nodes() const { return corrupted_nodes_; }
  /// Submissions seen so far for the job with handle `job` (the next
  /// submission is attempt n+1).
  [[nodiscard]] int attempts_seen(std::uint32_t job) const;

 private:
  /// Post-processing scheduled at submit time, applied at completion time.
  struct Post {
    double delay_seconds = 0;
    std::string_view corrupt_node;  ///< plan-owned or a static chaos label
  };
  /// One job's bookkeeping.
  struct JobSlot {
    int attempts = 0;
    bool has_post = false;
    Post post;       ///< the pending rewrite when has_post
  };
  /// A completion being held back by a kDelay directive.
  struct Held {
    TaskAttempt attempt;
    double release_time;
  };

  /// Moves due held completions into due_ and drains due_.
  std::vector<TaskAttempt> take_due();
  /// Applies post directives to one inner completion; returns true when the
  /// attempt was parked in held_ (delayed) instead of being ready now.
  bool apply_post(TaskAttempt& attempt);
  [[nodiscard]] double earliest_release() const;
  /// The slot of the job with handle `handle`, made on first sight.
  JobSlot& slot_for(std::uint32_t handle);

  ExecutionService& inner_;
  FaultPlan plan_;
  common::Rng rng_;
  std::vector<JobSlot> by_handle_;        ///< indexed by job handle
  std::deque<TaskAttempt> due_;           ///< synthesized, ready to deliver
  std::vector<Held> held_;                ///< delayed completions
  std::size_t hung_outstanding_ = 0;
  std::size_t injected_failures_ = 0;
  std::size_t injected_hangs_ = 0;
  std::size_t injected_delays_ = 0;
  std::size_t corrupted_nodes_ = 0;
};

}  // namespace pga::wms

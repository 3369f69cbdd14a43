// StagingService — an ExecutionService decorator (same shape as
// wms::FaultyService) that intercepts the planner's stage-in/stage-out
// jobs and realizes them as modeled transfers on the TransferManager
// instead of flat-cost simulated jobs. Compute and setup jobs pass
// through to the wrapped service untouched.
//
// Stage-in: every LFN in the job's args is transferred from its selected
// replica source (TransferManager::select_source) to the execution site.
// Stage-out: every LFN moves from the execution site back to the submit
// site. The per-file transfers of one job run concurrently (slots
// permitting) and are folded into one TaskAttempt: success means every
// file landed; a file that exhausts its retries fails the whole attempt,
// which the DAGMan engine then retries like any other failed job.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "data/transfer_manager.hpp"
#include "sim/event_queue.hpp"
#include "wms/catalog.hpp"
#include "wms/exec_service.hpp"

namespace pga::data {

/// Tunables for the staging decorator.
struct StagingConfig {
  std::string submit_site = "local";  ///< where inputs start and outputs land
  /// The execution site all staged jobs run against. The slimmed
  /// ConcreteJob no longer carries a per-job site (the planner maps one
  /// workflow to one site), so the decorator takes it once here instead.
  std::string execution_site;
  /// Bytes assumed per staged file when the replica catalog has no size
  /// (notably workflow outputs, which have no replica at plan time).
  std::uint64_t default_file_bytes = 0;
  /// Skip the transfer for a stage-in file already resident on the
  /// destination's storage element (touching it for LRU recency) instead
  /// of re-copying it — what makes data-locality scheduling save bytes.
  /// Off by default: staging behavior stays byte-identical.
  bool reuse_resident = false;
};

/// Decorates a simulation-backed ExecutionService with modeled staging.
/// The inner service must share `queue` (its completions and the
/// transfer events interleave on one clock); this matches SimService.
///
/// A staged attempt echoes its job's handle and reports the node
/// "<execution_site>-se". The service may be destroyed with transfers
/// still running on the shared TransferManager (a workflow that gave up on
/// a staging job); those transfers finish, and their results are dropped.
class StagingService final : public wms::ExecutionService {
 public:
  /// All references must outlive the service.
  StagingService(sim::EventQueue& queue, wms::ExecutionService& inner,
                 TransferManager& transfers, const wms::ReplicaCatalog& replicas,
                 StagingConfig config = {});
  ~StagingService() override;
  StagingService(const StagingService&) = delete;
  StagingService& operator=(const StagingService&) = delete;

  void submit(const wms::ConcreteJob& job) override;
  std::vector<wms::TaskAttempt> wait() override;
  std::vector<wms::TaskAttempt> wait_for(double timeout_seconds) override;
  void avoid_node(const std::string& node) override { inner_.avoid_node(node); }
  /// Our transfers land in completed_ only from queue events, so with
  /// none due now the step is a no-op once the inner service is quiet too.
  [[nodiscard]] bool quiet() override {
    return completed_.empty() && inner_.quiet();
  }
  /// Set on our own deliveries and forwarded to the inner service.
  void set_delivery_flag(std::uint8_t* flag) override {
    delivered_ = flag;
    inner_.set_delivery_flag(flag);
  }
  double now() override { return queue_.now(); }
  [[nodiscard]] double next_event_time() override {
    return inner_.next_event_time();  // transfers are queue-driven
  }
  [[nodiscard]] std::string label() const override { return inner_.label(); }

  /// Staging attempts intercepted so far (for reporting/tests).
  [[nodiscard]] std::size_t staged_jobs() const { return staged_jobs_; }
  /// Stage-in files (and their bytes) skipped because the destination
  /// already held them (reuse_resident only).
  [[nodiscard]] std::size_t bypassed_files() const { return bypassed_files_; }
  [[nodiscard]] std::uint64_t bypassed_bytes() const { return bypassed_bytes_; }

 private:
  /// Aggregates the per-file transfers of one staging job.
  struct StagingJob {
    std::uint32_t job = 0;  ///< ConcreteJob::index, echoed in the attempt
    double submit_time = 0;
    std::size_t remaining = 0;
    bool all_ok = true;
    std::string error;
    double first_start = -1;
    double last_end = 0;
    std::uint64_t bytes = 0;
    std::size_t attempts = 0;
  };

  void stage(const wms::ConcreteJob& job);
  void complete(StagingJob& staging);
  /// Everything finished so far: own staged attempts + the inner
  /// service's, drained without advancing time.
  std::vector<wms::TaskAttempt> drain();

  sim::EventQueue& queue_;
  wms::ExecutionService& inner_;
  TransferManager& transfers_;
  const wms::ReplicaCatalog& replicas_;
  StagingConfig config_;
  std::string node_label_;  ///< "<execution_site>-se"; attempts view it
  /// Points at this service until it is destroyed, then at null. Transfer
  /// callbacks hold a share and skip their work once it reads null.
  std::shared_ptr<StagingService*> self_;

  std::deque<wms::TaskAttempt> completed_;
  /// Error texts of failed staging attempts; TaskAttempt::error views them.
  std::deque<std::string> errors_;
  std::uint8_t* delivered_ = nullptr;  ///< see set_delivery_flag
  std::size_t own_outstanding_ = 0;
  std::size_t inner_outstanding_ = 0;
  std::size_t staged_jobs_ = 0;
  std::size_t bypassed_files_ = 0;
  std::uint64_t bypassed_bytes_ = 0;
};

}  // namespace pga::data

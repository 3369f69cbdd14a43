// The planning stage: abstract workflow -> concrete (executable) workflow.
//
// Mirrors pegasus-plan (§III): resolve transformations against the target
// site, insert stage-in/stage-out transfer jobs for external inputs and
// final outputs, flag (or insert) software-setup steps on sites without a
// preinstalled stack (the Fig. 3 red rectangles), and optionally cluster
// small tasks ("Pegasus also allows clustering of small tasks into larger
// clusters that are scheduled and executed to the same remote site").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/dax.hpp"
#include "wms/job_dag.hpp"

namespace pga::wms {

/// Role of a concrete job.
enum class JobKind { kCompute, kStageIn, kStageOut, kSetup, kClustered };

/// One schedulable job of the concrete workflow. Kept lean (~128 B): the
/// execution site lives once on ConcreteWorkflow::site() (the planner binds
/// the whole workflow to one site), and clustering metadata lives in side
/// tables keyed by handle — a million-job table pays for none of it.
struct ConcreteJob {
  std::string id;
  std::string transformation;
  std::vector<std::string> args;
  double cpu_seconds_hint = 0;
  /// Size of the stageable software bundle the setup downloads (from
  /// TransformationEntry::size_bytes; 0 = unknown). Drives the per-node
  /// software cache's byte accounting.
  std::uint64_t software_bytes = 0;
  /// For transfer jobs: total bytes moved (0 when replica sizes unknown).
  std::uint64_t staged_bytes = 0;
  /// DAGMan-style priority, honored by the "priority" scheduling policy
  /// (wms/scheduler.hpp): among ready jobs, higher submits first, FIFO
  /// within a priority level. The default FIFO policy ignores it.
  /// Longest-task-first scheduling sets this from the cost hint.
  int priority = 0;
  /// Dense handle assigned by ConcreteWorkflow::add_job (== position in
  /// jobs()). Execution services echo it back in TaskAttempt::job, which
  /// is how the engine matches a completion to its job; kInvalid until
  /// the job is added to a workflow.
  std::uint32_t index = 0xFFFFFFFFu;
  JobKind kind = JobKind::kCompute;
  /// Pay per-attempt software download/install overhead on the execution
  /// node (OSG-style sites). Mirrors the paper's "modified tasks".
  bool needs_software_setup = false;
};

/// A planned workflow bound to a site.
///
/// The graph reads and edge stores are JobDag's. A workflow built by
/// plan(), a streamed build or add_dependency calls owns its edges; a
/// replayed one (workload::PlanTemplate) shares its template's frozen
/// graph and adds none. Edges added here are not cycle checked: the
/// planner inserts them in bulk from a validated abstract workflow.
class ConcreteWorkflow : public JobDag {
 public:
  ConcreteWorkflow(std::string name, std::string site);

  /// Adds a job and returns its dense handle (== position in jobs()).
  /// Throws InvalidArgument on an empty or duplicate id, during an open
  /// bulk build, or when the workflow shares a frozen graph.
  std::uint32_t add_job(ConcreteJob job);

  // ------------------------------------------------------- streamed build
  /// Bulk job intake: default-constructs `count` jobs and returns the
  /// array for the caller to fill (in parallel over disjoint ranges — only
  /// plain field writes happen here). finish_bulk() then interns every id
  /// sequentially (the interner is not thread-safe), assigns handles, and
  /// validates non-empty/unique ids. The workflow must be empty before
  /// begin_bulk and jobs()/add_job must not be used in between.
  ConcreteJob* begin_bulk(std::size_t count);
  void finish_bulk();

  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] const std::vector<ConcreteJob>& jobs() const { return jobs_; }
  [[nodiscard]] const ConcreteJob& job(const std::string& id) const {
    return jobs_[job_index(id)];
  }
  /// Mutable access (the planner adjusts flags after structural edits).
  [[nodiscard]] ConcreteJob& mutable_job(const std::string& id) {
    return jobs_[job_index(id)];
  }
  /// jobs()[index], bounds-checked; the engine's hot path submits by handle.
  [[nodiscard]] const ConcreteJob& job_at(std::uint32_t index) const;

  // --------------------------------------------------- clustering lookups
  /// The abstract job a concrete job realizes: its own id for plain
  /// compute jobs (the planner maps them 1:1), empty for auxiliary and
  /// clustered jobs.
  [[nodiscard]] std::string_view abstract_id_of(std::uint32_t index) const;
  /// The abstract job ids folded into a clustered job (empty for
  /// non-clustered jobs).
  [[nodiscard]] std::vector<std::string> constituents_of(std::uint32_t index) const;
  void set_constituents(std::uint32_t index, std::vector<std::string> members);

  /// Count of jobs of one kind.
  [[nodiscard]] std::size_t count(JobKind kind) const;

 private:
  std::string site_;
  std::vector<ConcreteJob> jobs_;
  bool bulk_open_ = false;
  /// Clustering side table: only clustered jobs have entries.
  std::unordered_map<std::uint32_t, std::vector<std::string>> constituents_;
};

/// Cost hint of each stage_in/stage_out transfer job before its bytes are
/// priced in (see stage_job_seconds).
inline constexpr double kStageJobSeconds = 60;
/// Cost hint of each explicit software-setup job.
inline constexpr double kSetupJobSeconds = 300;

/// Planner knobs.
struct PlannerOptions {
  std::string target_site;
  bool explicit_setup_jobs = false;  ///< emit setup jobs as separate DAG nodes
                                     ///< instead of per-task flags
  std::size_t cluster_factor = 1;  ///< >1: horizontally cluster compute jobs of
                                   ///< the same transformation with identical
                                   ///< parent sets, cluster_factor per group
  /// Expected total bytes of the final outputs (outputs have no replica
  /// entries at plan time, so they cannot be priced from the catalog).
  /// When nonzero the stage-out job is priced like stage-in and carries
  /// the bytes in staged_bytes. 0 keeps the flat kStageJobSeconds hint.
  std::uint64_t expected_output_bytes = 0;
};

/// Cost hint of a transfer job moving `bytes` into or out of `site`:
/// kStageJobSeconds plus bytes / site.stage_bandwidth_bps, or the flat
/// base when the bytes or the bandwidth are unknown (0). stage_job prices
/// with it, and so does a plan template re-pricing a replayed stage job.
[[nodiscard]] double stage_job_seconds(std::uint64_t bytes, const SiteEntry& site);

/// The stage-in (kind kStageIn, id "stage_in_0") or stage-out (kStageOut,
/// "stage_out_0") transfer job moving `lfns`, `bytes` in total, into or
/// out of `site`, priced by stage_job_seconds. plan() adds these, and so
/// does every builder that reproduces plan()'s output without running it.
[[nodiscard]] ConcreteJob stage_job(JobKind kind, std::vector<std::string> lfns,
                                    std::uint64_t bytes, const SiteEntry& site);

/// Plans `abstract` onto `options.target_site`. Throws WorkflowError when a
/// transformation is not in the catalog for the site, or an external input
/// has no replica. Edge patterns of the abstract workflow propagate to the
/// concrete graph unmaterialized when clustering is off (handles are
/// identical); clustering collapses them into explicit cluster-level edges.
ConcreteWorkflow plan(const AbstractWorkflow& abstract, const SiteCatalog& sites,
                      const TransformationCatalog& transformations,
                      const ReplicaCatalog& replicas, const PlannerOptions& options);

}  // namespace pga::wms

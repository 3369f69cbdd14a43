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
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/dax.hpp"
#include "wms/edge_pattern.hpp"
#include "wms/frozen_graph.hpp"
#include "wms/id_table.hpp"

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
  /// jobs()). Execution services may echo it back in TaskAttempt::job so
  /// the engine matches completions without a hash lookup; kInvalid until
  /// the job is added to a workflow.
  std::uint32_t index = 0xFFFFFFFFu;
  JobKind kind = JobKind::kCompute;
  /// Pay per-attempt software download/install overhead on the execution
  /// node (OSG-style sites). Mirrors the paper's "modified tasks".
  bool needs_software_setup = false;
};

/// A planned workflow bound to a site.
///
/// Its dependencies live in one of two stores. A workflow that is built —
/// by plan(), a streamed build or add_dependency calls — keeps a mutable
/// WorkflowGraph. A replayed workflow (workload::PlanTemplate) instead
/// shares its template's FrozenGraph and adds no edges of its own. Every
/// graph accessor below reads whichever store the workflow has, with
/// identical results.
class ConcreteWorkflow {
 public:
  ConcreteWorkflow(std::string name, std::string site);

  /// Adds a job and returns its dense handle (== position in jobs()).
  std::uint32_t add_job(ConcreteJob job);
  /// Edge insertion. These, add_edge_pattern and add_job throw
  /// InvalidArgument on a workflow that shares a frozen graph.
  void add_dependency(const std::string& parent, const std::string& child);
  /// Handle-based edge insertion — no id lookups, for bulk graph builds.
  void add_dependency(std::uint32_t parent, std::uint32_t child);
  /// O(1)-storage arithmetic edge family; see WorkflowGraph::add_pattern.
  void add_edge_pattern(const EdgePattern& pattern);

  // --------------------------------------------------------- frozen graph
  /// Makes `graph` this workflow's dependency store. It must describe
  /// exactly this workflow's jobs, by handle: the node count is checked
  /// here, or by finish_bulk() when called before a bulk build. Throws
  /// InvalidArgument when the workflow already stores edges or has another
  /// job count, or when `graph` is null.
  void share_frozen_graph(std::shared_ptr<const FrozenGraph> graph);
  /// The shared frozen graph, or null for a workflow with its own edges.
  [[nodiscard]] const std::shared_ptr<const FrozenGraph>& frozen_graph() const {
    return frozen_;
  }
  /// This workflow's adjacency as a FrozenGraph: the shared one when
  /// there is one, else frozen now from the workflow's own edges.
  [[nodiscard]] std::shared_ptr<const FrozenGraph> freeze() const;

  // ------------------------------------------------------- streamed build
  /// Bulk job intake: default-constructs `count` jobs and returns the
  /// array for the caller to fill (in parallel over disjoint ranges — only
  /// plain field writes happen here). finish_bulk() then interns every id
  /// sequentially (the interner is not thread-safe), assigns handles, and
  /// validates non-empty/unique ids. The workflow must be empty before
  /// begin_bulk and jobs()/add_job must not be used in between.
  ConcreteJob* begin_bulk(std::size_t count);
  void finish_bulk();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] const std::vector<ConcreteJob>& jobs() const { return jobs_; }
  [[nodiscard]] const ConcreteJob& job(const std::string& id) const;
  /// Mutable access (the planner adjusts flags after structural edits).
  [[nodiscard]] ConcreteJob& mutable_job(const std::string& id);
  [[nodiscard]] bool has_job(const std::string& id) const;
  /// Dense index of `id` within jobs() (the scheduler core keys its per-job
  /// state by this). Throws InvalidArgument for unknown ids.
  [[nodiscard]] std::uint32_t job_index(const std::string& id) const;
  /// jobs()[index], bounds-checked; the engine's hot path submits by handle.
  [[nodiscard]] const ConcreteJob& job_at(std::uint32_t index) const;
  /// The job-id interner; handle h names jobs()[h].id.
  [[nodiscard]] const IdTable& ids() const { return ids_; }
  /// Parent/child handles of `index`, each list sorted by the neighbour's
  /// id (materialized — use for_each_*/counts on hot paths).
  [[nodiscard]] std::vector<std::uint32_t> parents_of(std::uint32_t index) const;
  [[nodiscard]] std::vector<std::uint32_t> children_of(std::uint32_t index) const;
  [[nodiscard]] std::size_t parent_count(std::uint32_t index) const {
    return frozen_ ? frozen_->parents(index).size() : graph_.parent_count(index);
  }
  [[nodiscard]] std::size_t child_count(std::uint32_t index) const {
    return frozen_ ? frozen_->children(index).size() : graph_.child_count(index);
  }
  /// Visits children/parents of `index` in neighbour-name order without
  /// materializing a list (the engine's release path).
  template <typename Fn>
  void for_each_child(std::uint32_t index, Fn&& fn) const {
    if (frozen_) {
      for (const std::uint32_t child : frozen_->children(index)) fn(child);
      return;
    }
    graph_.for_each_child(index, ids_, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_parent(std::uint32_t index, Fn&& fn) const {
    if (frozen_) {
      for (const std::uint32_t parent : frozen_->parents(index)) fn(parent);
      return;
    }
    graph_.for_each_parent(index, ids_, std::forward<Fn>(fn));
  }
  /// counts[i] = parent_count(i) in one bulk sweep (engine seed).
  void fill_parent_counts(std::vector<std::uint32_t>& counts) const {
    if (frozen_) {
      counts = frozen_->parent_counts();
      return;
    }
    graph_.fill_parent_counts(counts);
  }
  /// The mutable edge store. Throws InvalidArgument when the graph is
  /// frozen (use frozen_graph()).
  [[nodiscard]] const WorkflowGraph& graph() const;
  [[nodiscard]] std::vector<std::uint32_t> topological_order_indices() const;
  [[nodiscard]] std::vector<std::string> parents(const std::string& id) const;
  [[nodiscard]] std::vector<std::string> children(const std::string& id) const;
  [[nodiscard]] std::vector<std::string> topological_order() const;
  [[nodiscard]] std::size_t edge_count() const {
    return frozen_ ? frozen_->edge_count() : graph_.edge_count();
  }

  // --------------------------------------------------- clustering lookups
  /// The abstract job a concrete job realizes: its own id for plain
  /// compute jobs (the planner maps them 1:1), empty for auxiliary and
  /// clustered jobs.
  [[nodiscard]] std::string_view abstract_id_of(std::uint32_t index) const;
  /// The abstract job ids folded into a clustered job (empty for
  /// non-clustered jobs).
  [[nodiscard]] std::vector<std::string> constituents_of(std::uint32_t index) const;
  void set_constituents(std::uint32_t index, std::vector<std::string> members);

  /// Pre-sizes the interner and job storage (scale benches build
  /// million-job workflows; one allocation instead of log2(n) regrows).
  void reserve(std::size_t job_count, std::size_t id_bytes = 0);

  /// Count of jobs of one kind.
  [[nodiscard]] std::size_t count(JobKind kind) const;

 private:
  std::string name_;
  std::string site_;
  std::vector<ConcreteJob> jobs_;
  IdTable ids_;  // job id -> handle == index into jobs_
  WorkflowGraph graph_;
  std::shared_ptr<const FrozenGraph> frozen_;  ///< when set, replaces graph_
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
/// base when the bytes or the bandwidth are unknown (0). plan() prices its
/// stage_in/stage_out jobs with it, and so does every builder that
/// reproduces plan()'s output without running it.
[[nodiscard]] double stage_job_seconds(std::uint64_t bytes, const SiteEntry& site);

/// Plans `abstract` onto `options.target_site`. Throws WorkflowError when a
/// transformation is not in the catalog for the site, or an external input
/// has no replica. Edge patterns of the abstract workflow propagate to the
/// concrete graph unmaterialized when clustering is off (handles are
/// identical); clustering collapses them into explicit cluster-level edges.
ConcreteWorkflow plan(const AbstractWorkflow& abstract, const SiteCatalog& sites,
                      const TransformationCatalog& transformations,
                      const ReplicaCatalog& replicas, const PlannerOptions& options);

}  // namespace pga::wms

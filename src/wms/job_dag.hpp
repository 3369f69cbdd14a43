// The job DAG both workflow layers share.
//
// pegasus-plan maps an abstract workflow (dax.hpp) onto a concrete one
// (planner.hpp): the same DAG plus stage and setup jobs. Both are a JobDag
// — a name, a job-id interner and a dependency store — and add only their
// job records and how they are built. Handles are dense (IdTable) and
// equal each job's position in the derived class's job table.
//
// The dependency store is either an owned WorkflowGraph (explicit edges
// plus O(1)-storage EdgePatterns, edge_pattern.hpp) or, for a replayed
// plan, a FrozenGraph shared with its template. That choice is made here
// only: every read answers identically from either store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wms/edge_pattern.hpp"
#include "wms/frozen_graph.hpp"
#include "wms/id_table.hpp"

namespace pga::wms {

class JobDag {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool has_job(const std::string& id) const { return ids_.contains(id); }
  /// Dense handle of `id`; throws InvalidArgument for unknown ids.
  [[nodiscard]] std::uint32_t job_index(const std::string& id) const;
  /// The job-id interner; handle h names the job at position h.
  [[nodiscard]] const IdTable& ids() const { return ids_; }

  /// Pre-sizes the interner and adjacency index for `job_count` jobs whose
  /// ids total ~`id_bytes` (one allocation for a known-scale DAG).
  void reserve(std::size_t job_count, std::size_t id_bytes = 0);

  /// Adds a parent -> child edge; both ids must exist. A workflow built
  /// with cycle checks (the abstract one) ignores duplicate edges, also
  /// those a pattern already covers, and throws WorkflowError on a cycle;
  /// one without (the planner's bulk inserts) only ignores duplicates.
  /// Edge insertion throws InvalidArgument on a shared frozen graph.
  void add_dependency(const std::string& parent, const std::string& child);
  /// Handle-based edge insertion — no id lookups, for bulk graph builds.
  void add_dependency(std::uint32_t parent, std::uint32_t child);
  /// Adds a whole arithmetic family of edges in O(1) storage. All endpoint
  /// handles must already exist; see WorkflowGraph::add_pattern for the
  /// validation rules. No cycle check — topological_order() catches cycles.
  void add_edge_pattern(const EdgePattern& pattern);

  // --------------------------------------------------------- handle reads
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
  [[nodiscard]] std::size_t edge_count() const {
    return frozen_ ? frozen_->edge_count() : graph_.edge_count();
  }
  /// Kahn order: roots in handle order, children released in name order.
  /// Throws WorkflowError if the graph is cyclic.
  [[nodiscard]] std::vector<std::uint32_t> topological_order_indices() const;

  // --------------------------------------------------------- string reads
  /// Parents/children of `id`, sorted by id.
  [[nodiscard]] std::vector<std::string> parents(const std::string& id) const;
  [[nodiscard]] std::vector<std::string> children(const std::string& id) const;
  /// topological_order_indices() as ids.
  [[nodiscard]] std::vector<std::string> topological_order() const;

  // --------------------------------------------------------- edge stores
  /// The mutable edge store (planner bulk copies, emitters). Throws
  /// InvalidArgument when the workflow shares a frozen graph.
  [[nodiscard]] const WorkflowGraph& graph() const;
  /// Makes `graph` this workflow's dependency store. It must describe
  /// exactly this workflow's jobs, by handle: the node count is checked
  /// here, or when a bulk build's ids are interned after this call.
  /// Throws InvalidArgument when the workflow already stores edges or has
  /// another job count, or when `graph` is null.
  void share_frozen_graph(std::shared_ptr<const FrozenGraph> graph);
  /// The shared frozen graph, or null for a workflow with its own edges.
  [[nodiscard]] const std::shared_ptr<const FrozenGraph>& frozen_graph() const {
    return frozen_;
  }
  /// This workflow's adjacency as a FrozenGraph: the shared one when
  /// there is one, else frozen now from the workflow's own edges.
  [[nodiscard]] std::shared_ptr<const FrozenGraph> freeze() const;

 protected:
  /// Whether add_dependency runs a reachability search per edge.
  enum class CycleCheck : bool { kOff, kOn };

  JobDag(std::string name, CycleCheck cycle_check)
      : name_(std::move(name)), cycle_check_(cycle_check) {}

  /// Interns `id` as the next job and returns its handle. Throws
  /// InvalidArgument for an empty or duplicate id, or when a shared frozen
  /// graph fixes the job count.
  std::uint32_t add_node(const std::string& id);
  /// Bulk intake: intern_node() interns ids like add_node() without
  /// declaring graph nodes; close_nodes() then declares them all at once,
  /// or checks that a shared frozen graph has exactly that many nodes.
  std::uint32_t intern_node(const std::string& id);
  void close_nodes();

 private:
  /// The ids of `handles`, in order.
  [[nodiscard]] std::vector<std::string> names(
      const std::vector<std::uint32_t>& handles) const;
  /// Throws InvalidArgument unless `index` names an interned job.
  void check_handle(std::uint32_t index, const char* role) const;
  /// Throws InvalidArgument unless `graph` has `jobs` nodes.
  static void check_fits(const FrozenGraph& graph, std::size_t jobs);
  /// Throws InvalidArgument: `what` needs the mutable store.
  [[noreturn]] void throw_frozen(const char* what) const;

  std::string name_;
  CycleCheck cycle_check_;
  IdTable ids_;
  WorkflowGraph graph_;
  std::shared_ptr<const FrozenGraph> frozen_;  ///< when set, replaces graph_
};

}  // namespace pga::wms

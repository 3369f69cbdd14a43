// An immutable, shareable snapshot of one workflow's adjacency.
//
// A plan template replays the same DAG for every request of a topology
// (workload/plan_template.hpp). FrozenGraph does the per-DAG work once —
// children and parents in neighbour-name order as CSR arrays, the parent
// counts and the topological order — so every replayed workflow shares
// one read-only instance instead of re-inserting O(E) edges. JobDag
// (job_dag.hpp) decides whether a workflow reads this store or its own
// WorkflowGraph; every read is byte-compatible with the WorkflowGraph it
// was frozen from (same neighbour order, parent counts and Kahn order).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wms/edge_pattern.hpp"
#include "wms/id_table.hpp"

namespace pga::wms {

class FrozenGraph {
 public:
  /// Freezes `graph`, whose node names are `ids`. Throws WorkflowError
  /// naming `what` when the graph has a cycle.
  FrozenGraph(const WorkflowGraph& graph, const IdTable& ids, const std::string& what);

  [[nodiscard]] std::size_t node_count() const { return parent_counts_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return children_.size(); }

  /// Neighbours of `node` in neighbour-name order.
  [[nodiscard]] std::span<const std::uint32_t> children(std::uint32_t node) const {
    return {children_.data() + child_begin_[node],
            children_.data() + child_begin_[node + 1]};
  }
  [[nodiscard]] std::span<const std::uint32_t> parents(std::uint32_t node) const {
    return {parents_.data() + parent_begin_[node],
            parents_.data() + parent_begin_[node + 1]};
  }
  /// parent_counts()[v] == parents(v).size().
  [[nodiscard]] const std::vector<std::uint32_t>& parent_counts() const {
    return parent_counts_;
  }
  /// Kahn order: roots in handle order, children released in name order.
  [[nodiscard]] const std::vector<std::uint32_t>& topological_order() const {
    return topo_;
  }

 private:
  std::vector<std::uint32_t> child_begin_;   ///< node_count() + 1 offsets
  std::vector<std::uint32_t> children_;
  std::vector<std::uint32_t> parent_begin_;  ///< node_count() + 1 offsets
  std::vector<std::uint32_t> parents_;
  std::vector<std::uint32_t> parent_counts_;
  std::vector<std::uint32_t> topo_;
};

}  // namespace pga::wms

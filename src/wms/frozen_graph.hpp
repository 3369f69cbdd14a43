// An immutable, shareable snapshot of one workflow's adjacency.
//
// A plan template replays the same DAG for every request of a topology
// (workload/plan_template.hpp). Rebuilding that DAG per request — explicit
// edges re-inserted into hash-map adjacency, then a Kahn sort and
// name-merged neighbour iteration in every engine — costs O(E) hash probes
// per request for a graph that never changes. FrozenGraph does that work
// once: children and parents in neighbour-name order as CSR arrays, the
// parent counts and the topological order, all read-only, so any number of
// replayed ConcreteWorkflows share one instance through a
// shared_ptr<const FrozenGraph>.
//
// Every read is byte-compatible with the WorkflowGraph it was frozen from:
// the same neighbour order (the name-merged order of for_each_child /
// for_each_parent), the same parent counts, the same Kahn order.
// WorkflowGraph stays the build-side store: at 10^7 jobs its O(1) edge
// patterns beat the O(E) arrays here, so plan() and the streamed builds
// keep it.
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

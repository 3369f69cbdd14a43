#include "wms/frozen_graph.hpp"

namespace pga::wms {

FrozenGraph::FrozenGraph(const WorkflowGraph& graph, const IdTable& ids,
                         const std::string& what)
    : topo_(graph.topological_order(ids, what)) {
  const std::size_t n = graph.node_count();
  graph.fill_parent_counts(parent_counts_);
  child_begin_.reserve(n + 1);
  parent_begin_.reserve(n + 1);
  children_.reserve(graph.edge_count());
  parents_.reserve(graph.edge_count());
  for (std::uint32_t node = 0; node < n; ++node) {
    child_begin_.push_back(static_cast<std::uint32_t>(children_.size()));
    graph.for_each_child(node, ids, [&](std::uint32_t child) {
      children_.push_back(child);
    });
    parent_begin_.push_back(static_cast<std::uint32_t>(parents_.size()));
    graph.for_each_parent(node, ids, [&](std::uint32_t parent) {
      parents_.push_back(parent);
    });
  }
  child_begin_.push_back(static_cast<std::uint32_t>(children_.size()));
  parent_begin_.push_back(static_cast<std::uint32_t>(parents_.size()));
}

}  // namespace pga::wms

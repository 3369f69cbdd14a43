#include "wms/job_dag.hpp"

#include "common/error.hpp"

namespace pga::wms {

using common::InvalidArgument;
using common::WorkflowError;

std::uint32_t JobDag::job_index(const std::string& id) const {
  const std::uint32_t handle = ids_.find(id);
  if (handle == IdTable::kInvalid) throw InvalidArgument("unknown job: " + id);
  return handle;
}

void JobDag::reserve(std::size_t job_count, std::size_t id_bytes) {
  ids_.reserve(job_count, id_bytes);
  if (!frozen_) graph_.reserve(job_count);
}

void JobDag::add_dependency(const std::string& parent, const std::string& child) {
  const std::uint32_t p = ids_.find(parent);
  const std::uint32_t c = ids_.find(child);
  if (p == IdTable::kInvalid) throw InvalidArgument("unknown parent job: " + parent);
  if (c == IdTable::kInvalid) throw InvalidArgument("unknown child job: " + child);
  add_dependency(p, c);
}

void JobDag::add_dependency(std::uint32_t parent, std::uint32_t child) {
  if (frozen_) throw_frozen("add_dependency");
  check_handle(parent, "parent");
  check_handle(child, "child");
  if (parent == child) {
    throw WorkflowError("self-dependency on " + std::string(ids_.name(parent)));
  }
  if (cycle_check_ == CycleCheck::kOn) {
    if (graph_.has_edge(parent, child, ids_)) return;
    if (graph_.path_exists(child, parent)) {
      throw WorkflowError("dependency " + std::string(ids_.name(parent)) + " -> " +
                          std::string(ids_.name(child)) + " creates a cycle");
    }
  }
  graph_.add_edge(parent, child, ids_);
}

void JobDag::add_edge_pattern(const EdgePattern& pattern) {
  if (frozen_) throw_frozen("add_edge_pattern");
  graph_.add_pattern(pattern, ids_);
}

std::vector<std::uint32_t> JobDag::parents_of(std::uint32_t index) const {
  check_handle(index, "job");
  std::vector<std::uint32_t> out;
  out.reserve(parent_count(index));
  for_each_parent(index, [&out](std::uint32_t h) { out.push_back(h); });
  return out;
}

std::vector<std::uint32_t> JobDag::children_of(std::uint32_t index) const {
  check_handle(index, "job");
  std::vector<std::uint32_t> out;
  out.reserve(child_count(index));
  for_each_child(index, [&out](std::uint32_t h) { out.push_back(h); });
  return out;
}

std::vector<std::uint32_t> JobDag::topological_order_indices() const {
  if (frozen_) return frozen_->topological_order();
  return graph_.topological_order(ids_, "workflow " + name_);
}

std::vector<std::string> JobDag::parents(const std::string& id) const {
  return names(parents_of(job_index(id)));
}

std::vector<std::string> JobDag::children(const std::string& id) const {
  return names(children_of(job_index(id)));
}

std::vector<std::string> JobDag::topological_order() const {
  return names(topological_order_indices());
}

const WorkflowGraph& JobDag::graph() const {
  if (frozen_) throw_frozen("graph()");
  return graph_;
}

void JobDag::share_frozen_graph(std::shared_ptr<const FrozenGraph> graph) {
  if (graph == nullptr) throw InvalidArgument("share_frozen_graph: null graph");
  if (graph_.edge_count() > 0) {
    throw InvalidArgument("share_frozen_graph: workflow " + name_ +
                          " already stores edges");
  }
  if (!ids_.empty()) check_fits(*graph, ids_.size());
  frozen_ = std::move(graph);
}

std::shared_ptr<const FrozenGraph> JobDag::freeze() const {
  if (frozen_) return frozen_;
  return std::make_shared<const FrozenGraph>(graph_, ids_, "workflow " + name_);
}

std::uint32_t JobDag::add_node(const std::string& id) {
  if (frozen_) throw_frozen("add_job");
  const std::uint32_t handle = intern_node(id);
  graph_.add_node();
  return handle;
}

std::uint32_t JobDag::intern_node(const std::string& id) {
  if (id.empty()) throw InvalidArgument("job id must not be empty");
  const std::size_t before = ids_.size();
  const std::uint32_t handle = ids_.intern(id);
  if (ids_.size() == before) throw InvalidArgument("duplicate job id: " + id);
  return handle;
}

void JobDag::close_nodes() {
  if (frozen_) {
    check_fits(*frozen_, ids_.size());
    return;
  }
  graph_.set_node_count(ids_.size());
}

std::vector<std::string> JobDag::names(const std::vector<std::uint32_t>& handles) const {
  std::vector<std::string> out;
  out.reserve(handles.size());
  for (const std::uint32_t h : handles) out.emplace_back(ids_.name(h));
  return out;
}

void JobDag::check_handle(std::uint32_t index, const char* role) const {
  if (index >= ids_.size()) {
    throw InvalidArgument(std::string("unknown ") + role +
                          " handle: " + std::to_string(index));
  }
}

void JobDag::check_fits(const FrozenGraph& graph, std::size_t jobs) {
  if (graph.node_count() != jobs) {
    throw InvalidArgument("frozen graph of " + std::to_string(graph.node_count()) +
                          " nodes cannot serve " + std::to_string(jobs) + " jobs");
  }
}

void JobDag::throw_frozen(const char* what) const {
  throw InvalidArgument(std::string(what) + " on workflow " + name_ +
                        ", whose graph is a shared frozen plan");
}

}  // namespace pga::wms

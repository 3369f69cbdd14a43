#include "wms/edge_pattern.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace pga::wms {
namespace {

/// lower_bound over a name-sorted handle list.
std::vector<std::uint32_t>::const_iterator find_by_name(
    const std::vector<std::uint32_t>& list, std::uint32_t handle,
    const IdTable& ids) {
  const std::string_view name = ids.name(handle);
  return std::lower_bound(list.begin(), list.end(), handle,
                          [&](std::uint32_t lhs, std::uint32_t) {
                            return ids.name(lhs) < name;
                          });
}

/// Sorted-by-name insert; false when the handle is already present.
bool insert_sorted(std::vector<std::uint32_t>& list, std::uint32_t handle,
                   const IdTable& ids) {
  const auto it = find_by_name(list, handle, ids);
  if (it != list.end() && *it == handle) return false;
  list.insert(it, handle);
  return true;
}

}  // namespace

void WorkflowGraph::reserve(std::size_t nodes) {
  children_.reserve(nodes);
  parents_.reserve(nodes);
}

const std::vector<std::uint32_t>& WorkflowGraph::explicit_list(
    const std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>& side,
    std::uint32_t node) {
  static const std::vector<std::uint32_t> kEmpty;
  const auto it = side.find(node);
  return it == side.end() ? kEmpty : it->second;
}

bool WorkflowGraph::contribution(const EdgePattern& pattern, std::uint32_t node,
                                 bool children, Seq& out) {
  const std::uint32_t query_begin = children ? pattern.src_begin : pattern.dst_begin;
  const std::uint32_t query_stride = children ? pattern.src_stride : pattern.dst_stride;
  const std::uint32_t other_begin = children ? pattern.dst_begin : pattern.src_begin;
  const std::uint32_t other_stride = children ? pattern.dst_stride : pattern.src_stride;
  if (query_stride == 0) {
    if (node != query_begin) return false;
    out = Seq{other_begin, other_stride, pattern.count};
    return true;
  }
  if (node < query_begin) return false;
  const std::uint32_t delta = node - query_begin;
  if (delta % query_stride != 0) return false;
  const std::uint32_t i = delta / query_stride;
  if (i >= pattern.count) return false;
  out = Seq{other_begin + i * other_stride, 0, 1};
  return true;
}

bool WorkflowGraph::has_edge(std::uint32_t parent, std::uint32_t child,
                             const IdTable& ids) const {
  const auto it = children_.find(parent);
  if (it != children_.end()) {
    const auto pos = find_by_name(it->second, child, ids);
    if (pos != it->second.end() && *pos == child) return true;
  }
  for (const EdgePattern& pattern : patterns_) {
    Seq seq;
    if (!contribution(pattern, parent, /*children=*/true, seq)) continue;
    if (seq.remaining == 1) {
      if (seq.next == child) return true;
      continue;
    }
    // Fan-out run: membership is an arithmetic test.
    if (child < seq.next) continue;
    const std::uint32_t delta = child - seq.next;
    if (seq.stride == 0) continue;  // constant run != child (checked above)
    if (delta % seq.stride == 0 && delta / seq.stride < seq.remaining) return true;
  }
  return false;
}

bool WorkflowGraph::add_edge(std::uint32_t parent, std::uint32_t child,
                             const IdTable& ids) {
  if (has_edge(parent, child, ids)) return false;
  insert_sorted(children_[parent], child, ids);
  insert_sorted(parents_[child], parent, ids);
  ++explicit_edges_;
  return true;
}

void WorkflowGraph::add_pattern(const EdgePattern& pattern, const IdTable& ids) {
  if (patterns_.size() >= kMaxPatterns) {
    throw common::InvalidArgument("edge pattern limit (" +
                                  std::to_string(kMaxPatterns) +
                                  ") exceeded");
  }
  if (pattern.count == 0) {
    throw common::InvalidArgument("edge pattern must cover at least one edge");
  }
  if (pattern.count > 1 && pattern.src_stride == 0 && pattern.dst_stride == 0) {
    throw common::InvalidArgument(
        "edge pattern with both strides zero repeats one edge " +
        std::to_string(pattern.count) + " times");
  }
  const std::uint64_t last = pattern.count - 1;
  const std::uint64_t src_last =
      static_cast<std::uint64_t>(pattern.src_begin) + last * pattern.src_stride;
  const std::uint64_t dst_last =
      static_cast<std::uint64_t>(pattern.dst_begin) + last * pattern.dst_stride;
  if (src_last >= nodes_ || dst_last >= nodes_) {
    throw common::InvalidArgument("edge pattern endpoint out of range (nodes=" +
                                  std::to_string(nodes_) + ")");
  }
  // Self-edge: src(i) == dst(i) has at most one integral solution.
  const std::int64_t stride_gap = static_cast<std::int64_t>(pattern.src_stride) -
                                  static_cast<std::int64_t>(pattern.dst_stride);
  const std::int64_t begin_gap = static_cast<std::int64_t>(pattern.dst_begin) -
                                 static_cast<std::int64_t>(pattern.src_begin);
  if (stride_gap == 0) {
    if (begin_gap == 0) {
      throw common::InvalidArgument("edge pattern contains a self-dependency");
    }
  } else if (begin_gap % stride_gap == 0) {
    const std::int64_t i = begin_gap / stride_gap;
    if (i >= 0 && i < static_cast<std::int64_t>(pattern.count)) {
      throw common::InvalidArgument(
          "edge pattern contains a self-dependency at index " +
          std::to_string(i));
    }
  }
  // Strided sides must ascend in *name* order: the merge adapter equates a
  // handle run with a name-sorted neighbour list (zero-padded ids).
  const auto check_monotonic = [&](std::uint32_t begin, std::uint32_t stride,
                                   const char* side) {
    if (stride == 0 || pattern.count < 2) return;
    std::uint32_t prev = begin;
    for (std::uint32_t i = 1; i < pattern.count; ++i) {
      const std::uint32_t cur = begin + i * stride;
      if (!(ids.name(prev) < ids.name(cur))) {
        throw common::InvalidArgument(
            std::string("edge pattern ") + side +
            " range is not name-monotonic at index " + std::to_string(i) +
            " (" + std::string(ids.name(prev)) + " !< " +
            std::string(ids.name(cur)) + ")");
      }
      prev = cur;
    }
  };
  check_monotonic(pattern.src_begin, pattern.src_stride, "src");
  check_monotonic(pattern.dst_begin, pattern.dst_stride, "dst");
  patterns_.push_back(pattern);
  pattern_edges_ += pattern.count;
}

std::size_t WorkflowGraph::child_count(std::uint32_t node) const {
  std::size_t count = explicit_list(children_, node).size();
  for (const EdgePattern& pattern : patterns_) {
    Seq seq;
    if (contribution(pattern, node, /*children=*/true, seq)) count += seq.remaining;
  }
  return count;
}

std::size_t WorkflowGraph::parent_count(std::uint32_t node) const {
  std::size_t count = explicit_list(parents_, node).size();
  for (const EdgePattern& pattern : patterns_) {
    Seq seq;
    if (contribution(pattern, node, /*children=*/false, seq)) count += seq.remaining;
  }
  return count;
}

void WorkflowGraph::fill_parent_counts(std::vector<std::uint32_t>& counts) const {
  counts.assign(nodes_, 0);
  for (const auto& [child, list] : parents_) {
    counts[child] += static_cast<std::uint32_t>(list.size());
  }
  for (const EdgePattern& pattern : patterns_) {
    if (pattern.dst_stride == 0) {
      counts[pattern.dst_begin] += pattern.count;
    } else {
      std::uint32_t dst = pattern.dst_begin;
      for (std::uint32_t i = 0; i < pattern.count; ++i, dst += pattern.dst_stride) {
        ++counts[dst];
      }
    }
  }
}

std::vector<std::uint32_t> WorkflowGraph::topological_order(
    const IdTable& ids, const std::string& what) const {
  std::vector<std::uint32_t> in_degree;
  fill_parent_counts(in_degree);
  std::vector<std::uint32_t> order;
  order.reserve(nodes_);
  for (std::uint32_t i = 0; i < nodes_; ++i) {
    if (in_degree[i] == 0) order.push_back(i);
  }
  // `order` doubles as the BFS queue: head scans forward while releases
  // append, and on exit it is the full topological order.
  for (std::size_t head = 0; head < order.size(); ++head) {
    for_each_child(order[head], ids, [&](std::uint32_t child) {
      if (--in_degree[child] == 0) order.push_back(child);
    });
  }
  if (order.size() != nodes_) {
    throw common::WorkflowError(what + " contains a cycle");
  }
  return order;
}

bool WorkflowGraph::path_exists(std::uint32_t from, std::uint32_t to) const {
  if (from == to) return true;
  if (visit_mark_.size() < nodes_) visit_mark_.resize(nodes_, 0);
  if (++visit_epoch_ == 0) {  // epoch wrapped: old stamps are ambiguous
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
    visit_epoch_ = 1;
  }
  const std::uint32_t epoch = visit_epoch_;
  frontier_.clear();
  frontier_.push_back(from);
  visit_mark_[from] = epoch;
  bool found = false;
  // Order-insensitive reachability: raw explicit lists + pattern runs,
  // no name merging.
  const auto visit = [&](std::uint32_t node) {
    if (visit_mark_[node] == epoch) return;
    visit_mark_[node] = epoch;
    if (node == to) found = true;
    frontier_.push_back(node);
  };
  for (std::size_t head = 0; head < frontier_.size() && !found; ++head) {
    const std::uint32_t node = frontier_[head];
    for (const std::uint32_t child : explicit_list(children_, node)) {
      visit(child);
      if (found) break;
    }
    if (found) break;
    for (const EdgePattern& pattern : patterns_) {
      Seq seq;
      if (!contribution(pattern, node, /*children=*/true, seq)) continue;
      for (; seq.remaining > 0; --seq.remaining, seq.next += seq.stride) {
        visit(seq.next);
        if (found) break;
      }
      if (found) break;
    }
  }
  return found;
}

}  // namespace pga::wms

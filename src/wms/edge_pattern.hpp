// Pattern-compressed dependency storage shared by AbstractWorkflow and
// ConcreteWorkflow.
//
// Regular fan-out/fan-in dominates every workflow this repo generates:
// split -> n run_cap3 workers -> merge materializes 2n explicit edges whose
// structure is one line of arithmetic. WorkflowGraph stores such families
// as EdgePattern ranges — O(1) memory per pattern instead of O(n) adjacency
// entries — next to a sparse explicit-edge map for the irregular rest, and
// presents BOTH through one name-ordered iteration adapter so everything
// ordered on top (the engine's release order, Kahn topological order, the
// DOT/DAX emitters, the string shims) sees exactly the adjacency the old
// fully-materialized sorted-vector layout produced. The generator's
// zero-padded ids make handle order equal name order inside a pattern
// range, which is what lets an arithmetic handle sequence stand in for a
// name-sorted neighbour list.
//
// Determinism contract (pinned by tests/wms_edge_pattern_test.cpp and the
// golden-log suite): a graph built from patterns and the same graph built
// from materialized explicit edges are indistinguishable through every
// read API — neighbour order, topological order, edge counts, emitted
// bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wms/id_table.hpp"

namespace pga::wms {

/// One arithmetic family of edges: src(i) -> dst(i) for i in [0, count),
/// where src(i) = src_begin + i*src_stride and dst(i) = dst_begin +
/// i*dst_stride. A stride of 0 pins that endpoint (fan-out when
/// src_stride == 0, fan-in when dst_stride == 0, element-wise chains when
/// both are nonzero).
struct EdgePattern {
  std::uint32_t src_begin = 0;
  std::uint32_t dst_begin = 0;
  std::uint32_t count = 0;
  std::uint32_t src_stride = 0;
  std::uint32_t dst_stride = 0;

  [[nodiscard]] std::uint32_t src(std::uint32_t i) const {
    return src_begin + i * src_stride;
  }
  [[nodiscard]] std::uint32_t dst(std::uint32_t i) const {
    return dst_begin + i * dst_stride;
  }

  friend bool operator==(const EdgePattern&, const EdgePattern&) = default;
};

/// Dependency storage for a workflow of dense-handle nodes: a sparse
/// explicit adjacency (only nodes that actually have irregular edges pay
/// for entries) plus up to kMaxPatterns validated EdgePatterns.
///
/// Explicit lists are kept sorted by interned name; patterns are validated
/// name-monotonic on their strided sides at insertion. Iteration merges
/// the two by name, so neighbour order is independent of how an edge was
/// stored. Callers own the no-overlap contract between *patterns*: a pair
/// covered by two patterns would be visited twice (add_edge does check
/// patterns, so explicit duplicates of a pattern edge are ignored like any
/// other duplicate).
class WorkflowGraph {
 public:
  /// Patterns per graph. Small and fixed so per-lookup pattern scans and
  /// the merge cursor array stay O(1)-ish and allocation-free.
  static constexpr std::size_t kMaxPatterns = 64;

  /// Declares one more node (call per add_job). Handles are dense.
  void add_node() { ++nodes_; }
  /// Bulk node declaration for streamed builds.
  void set_node_count(std::size_t count) { nodes_ = count; }
  [[nodiscard]] std::size_t node_count() const { return nodes_; }

  /// Pre-sizes the explicit adjacency index for `nodes` nodes.
  void reserve(std::size_t nodes);

  /// True when parent -> child exists, explicitly or via a pattern.
  [[nodiscard]] bool has_edge(std::uint32_t parent, std::uint32_t child,
                              const IdTable& ids) const;

  /// Inserts an explicit edge (both lists sorted by name). Returns false —
  /// and stores nothing — when the edge already exists in either form.
  /// Performs no cycle check; callers that need one use path_exists first.
  bool add_edge(std::uint32_t parent, std::uint32_t child, const IdTable& ids);

  /// Validates and stores one pattern. Throws InvalidArgument on: zero
  /// count, endpoints out of node range, both strides zero with count > 1
  /// (the same edge count times), any self-edge src(i) == dst(i), a
  /// non-name-monotonic strided side (handle order must equal name order —
  /// zero-padded ids), or more than kMaxPatterns patterns. Does NOT check
  /// overlap against other patterns (caller contract) and does not cycle
  /// check (validate()/topological_order throws on cycles).
  void add_pattern(const EdgePattern& pattern, const IdTable& ids);

  [[nodiscard]] const std::vector<EdgePattern>& patterns() const {
    return patterns_;
  }
  [[nodiscard]] std::size_t edge_count() const {
    return explicit_edges_ + pattern_edges_;
  }
  [[nodiscard]] std::size_t explicit_edge_count() const { return explicit_edges_; }
  [[nodiscard]] std::size_t pattern_edge_count() const { return pattern_edges_; }

  /// Neighbour counts including pattern contributions; O(patterns).
  [[nodiscard]] std::size_t child_count(std::uint32_t node) const;
  [[nodiscard]] std::size_t parent_count(std::uint32_t node) const;

  /// Calls fn(handle) for every child/parent of `node` in neighbour-name
  /// order — the order the materialized sorted adjacency iterated in.
  template <typename Fn>
  void for_each_child(std::uint32_t node, const IdTable& ids, Fn&& fn) const {
    for_each_merged(explicit_list(children_, node), node, ids,
                    /*children=*/true, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_parent(std::uint32_t node, const IdTable& ids, Fn&& fn) const {
    for_each_merged(explicit_list(parents_, node), node, ids,
                    /*children=*/false, std::forward<Fn>(fn));
  }

  /// Calls fn(parent, child) for every *explicit* edge, in unspecified
  /// order (bulk graph copies re-sort on insertion).
  template <typename Fn>
  void for_each_explicit_edge(Fn&& fn) const {
    for (const auto& [parent, kids] : children_) {
      for (const std::uint32_t child : kids) fn(parent, child);
    }
  }

  /// counts[v] = parent_count(v) for every node, in one bulk sweep —
  /// O(nodes + explicit edges + pattern edges) integer work, no per-node
  /// pattern scans (the engine's predecessor-count seed at scale).
  void fill_parent_counts(std::vector<std::uint32_t>& counts) const;

  /// Kahn topological order: roots in handle order, children released in
  /// name order — byte-compatible with the materialized layout. Throws
  /// WorkflowError naming `what` on a cycle.
  [[nodiscard]] std::vector<std::uint32_t> topological_order(
      const IdTable& ids, const std::string& what) const;

  /// Reachability over explicit + pattern edges (cycle guard for
  /// add_dependency). Epoch-stamped marks: O(reached), no per-call clear.
  [[nodiscard]] bool path_exists(std::uint32_t from, std::uint32_t to) const;

 private:
  /// One merge cursor: an arithmetic neighbour run from a pattern.
  struct Seq {
    std::uint32_t next = 0;
    std::uint32_t stride = 0;
    std::uint32_t remaining = 0;
  };

  [[nodiscard]] static const std::vector<std::uint32_t>& explicit_list(
      const std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>& side,
      std::uint32_t node);

  /// The pattern's neighbour run for `node` (children or parents side);
  /// false when the pattern doesn't touch `node` on that side.
  [[nodiscard]] static bool contribution(const EdgePattern& pattern,
                                         std::uint32_t node, bool children,
                                         Seq& out);

  template <typename Fn>
  void for_each_merged(const std::vector<std::uint32_t>& explicit_side,
                       std::uint32_t node, const IdTable& ids, bool children,
                       Fn&& fn) const {
    std::array<Seq, kMaxPatterns> seqs;
    std::size_t num_seqs = 0;
    for (const EdgePattern& pattern : patterns_) {
      Seq seq;
      if (contribution(pattern, node, children, seq)) seqs[num_seqs++] = seq;
    }
    if (num_seqs == 0) {  // irregular-only node: the common sparse case
      for (const std::uint32_t handle : explicit_side) fn(handle);
      return;
    }
    std::size_t explicit_pos = 0;
    for (;;) {
      // Fast path once one source remains: drain it without name compares
      // (this is where a million-wide fan-out spends its time).
      std::size_t live = explicit_pos < explicit_side.size() ? 1 : 0;
      std::size_t live_seq = kMaxPatterns;
      for (std::size_t s = 0; s < num_seqs; ++s) {
        if (seqs[s].remaining > 0) {
          ++live;
          live_seq = s;
        }
      }
      if (live == 0) return;
      if (live == 1) {
        if (live_seq == kMaxPatterns) {
          for (; explicit_pos < explicit_side.size(); ++explicit_pos) {
            fn(explicit_side[explicit_pos]);
          }
        } else {
          Seq& seq = seqs[live_seq];
          for (; seq.remaining > 0; --seq.remaining, seq.next += seq.stride) {
            fn(seq.next);
          }
        }
        return;
      }
      // Pick the name-smallest head across the live sources.
      bool from_explicit = explicit_pos < explicit_side.size();
      std::uint32_t best = from_explicit ? explicit_side[explicit_pos] : 0;
      std::string_view best_name = from_explicit ? ids.name(best) : std::string_view{};
      std::size_t best_seq = kMaxPatterns;
      for (std::size_t s = 0; s < num_seqs; ++s) {
        if (seqs[s].remaining == 0) continue;
        const std::string_view name = ids.name(seqs[s].next);
        if (best_seq == kMaxPatterns && !from_explicit) {
          best = seqs[s].next;
          best_name = name;
          best_seq = s;
        } else if (name < best_name) {
          best = seqs[s].next;
          best_name = name;
          best_seq = s;
        }
      }
      fn(best);
      if (best_seq == kMaxPatterns) {
        ++explicit_pos;
      } else {
        Seq& seq = seqs[best_seq];
        --seq.remaining;
        seq.next += seq.stride;
      }
    }
  }

  std::size_t nodes_ = 0;
  /// Sparse explicit adjacency: only nodes with irregular edges have
  /// entries (a pattern-compressed million-job DAG keeps a handful).
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> children_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> parents_;
  std::vector<EdgePattern> patterns_;
  std::size_t explicit_edges_ = 0;
  std::size_t pattern_edges_ = 0;
  /// Reachability scratch, epoch-stamped so each BFS touches only what it
  /// reaches instead of clearing an O(n) bitmap per query.
  mutable std::vector<std::uint32_t> visit_mark_;
  mutable std::uint32_t visit_epoch_ = 0;
  mutable std::vector<std::uint32_t> frontier_;
};

}  // namespace pga::wms

// WorkflowGraph's determinism contract: a graph built from EdgePatterns
// and the same graph built from materialized explicit edges must be
// indistinguishable through every read API — neighbour order, counts,
// topological order, reachability — plus the validation surface that keeps
// the pattern fast paths honest (name monotonicity, self-edges, ranges).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "wms/dot.hpp"
#include "wms/edge_pattern.hpp"
#include "wms/id_table.hpp"
#include "wms/planner.hpp"

namespace pga::wms {
namespace {

/// The children/parents of `node` in visit (neighbour-name) order.
std::vector<std::uint32_t> children_sorted(const WorkflowGraph& graph,
                                           std::uint32_t node, const IdTable& ids) {
  std::vector<std::uint32_t> out;
  graph.for_each_child(node, ids, [&out](std::uint32_t h) { out.push_back(h); });
  return out;
}
std::vector<std::uint32_t> parents_sorted(const WorkflowGraph& graph,
                                          std::uint32_t node, const IdTable& ids) {
  std::vector<std::uint32_t> out;
  graph.for_each_parent(node, ids, [&out](std::uint32_t h) { out.push_back(h); });
  return out;
}

/// Interns "j00".."jNN" (zero-padded: handle order == name order) and
/// declares that many nodes on both graphs under test.
struct GraphPair {
  IdTable ids;
  WorkflowGraph with_patterns;
  WorkflowGraph materialized;

  explicit GraphPair(std::size_t nodes) {
    for (std::size_t i = 0; i < nodes; ++i) {
      std::string id = "j" + std::to_string(i);
      if (id.size() < 3) id.insert(1, 3 - id.size(), '0');
      ids.intern(id);
    }
    with_patterns.set_node_count(nodes);
    materialized.set_node_count(nodes);
  }

  /// Records the pattern on one side, its materialized edges on the other.
  void add(const EdgePattern& pattern) {
    with_patterns.add_pattern(pattern, ids);
    for (std::uint32_t i = 0; i < pattern.count; ++i) {
      materialized.add_edge(pattern.src(i), pattern.dst(i), ids);
    }
  }

  /// The same explicit edge on both.
  void edge(std::uint32_t parent, std::uint32_t child) {
    with_patterns.add_edge(parent, child, ids);
    materialized.add_edge(parent, child, ids);
  }

  /// Every read API agrees between the two layouts.
  void expect_identical() const {
    ASSERT_EQ(with_patterns.node_count(), materialized.node_count());
    EXPECT_EQ(with_patterns.edge_count(), materialized.edge_count());
    const std::size_t nodes = with_patterns.node_count();
    for (std::uint32_t v = 0; v < nodes; ++v) {
      EXPECT_EQ(children_sorted(with_patterns, v, ids),
                children_sorted(materialized, v, ids))
          << "children of " << ids.name(v);
      EXPECT_EQ(parents_sorted(with_patterns, v, ids),
                parents_sorted(materialized, v, ids))
          << "parents of " << ids.name(v);
      EXPECT_EQ(with_patterns.child_count(v), materialized.child_count(v));
      EXPECT_EQ(with_patterns.parent_count(v), materialized.parent_count(v));
      for (std::uint32_t w = 0; w < nodes; ++w) {
        EXPECT_EQ(with_patterns.has_edge(v, w, ids),
                  materialized.has_edge(v, w, ids))
            << ids.name(v) << " -> " << ids.name(w);
      }
    }
    std::vector<std::uint32_t> counts_a;
    std::vector<std::uint32_t> counts_b;
    with_patterns.fill_parent_counts(counts_a);
    materialized.fill_parent_counts(counts_b);
    EXPECT_EQ(counts_a, counts_b);
    EXPECT_EQ(with_patterns.topological_order(ids, "patterned"),
              materialized.topological_order(ids, "materialized"));
  }
};

TEST(EdgePattern, FanOutFanInMatchesMaterializedLayout) {
  // j00 -> j01..j10 -> j11: the blast2cap3 silhouette.
  GraphPair g(12);
  g.add({.src_begin = 0, .dst_begin = 1, .count = 10, .src_stride = 0,
         .dst_stride = 1});
  g.add({.src_begin = 1, .dst_begin = 11, .count = 10, .src_stride = 1,
         .dst_stride = 0});
  EXPECT_EQ(g.with_patterns.pattern_edge_count(), 20u);
  EXPECT_EQ(g.with_patterns.explicit_edge_count(), 0u);
  g.expect_identical();
}

TEST(EdgePattern, ElementwiseChainMatchesMaterializedLayout) {
  // Both strides nonzero: j00i -> j00(i+1) element-wise.
  GraphPair g(8);
  g.add({.src_begin = 0, .dst_begin = 1, .count = 7, .src_stride = 1,
         .dst_stride = 1});
  g.expect_identical();
}

TEST(EdgePattern, IrregularRemainderMergesWithExplicitEdges) {
  // A pattern covering the middle of a node's neighbour list with explicit
  // edges on both sides of it by name — the merge must interleave.
  GraphPair g(12);
  g.add({.src_begin = 0, .dst_begin = 4, .count = 4, .src_stride = 0,
         .dst_stride = 1});            // j00 -> j04..j07
  g.edge(0, 2);                        // before the run by name
  g.edge(0, 9);                        // after the run
  g.edge(0, 11);
  g.edge(1, 4);                        // j04 gains an irregular parent
  g.expect_identical();
  // Spot-check the merged order is name order, not insertion order.
  const auto children = children_sorted(g.with_patterns, 0, g.ids);
  const std::vector<std::uint32_t> expected{2, 4, 5, 6, 7, 9, 11};
  EXPECT_EQ(children, expected);
}

TEST(EdgePattern, SingleEdgePatternAndPinnedPairBehaveAsOneEdge) {
  // count == 1 with both strides 0 is legal: exactly one edge.
  GraphPair g(4);
  g.add({.src_begin = 1, .dst_begin = 3, .count = 1, .src_stride = 0,
         .dst_stride = 0});
  EXPECT_EQ(g.with_patterns.edge_count(), 1u);
  EXPECT_TRUE(g.with_patterns.has_edge(1, 3, g.ids));
  g.expect_identical();
}

TEST(EdgePattern, ManyPatternsOnOneNodeMergeByName) {
  // Several runs landing on the same source, deliberately inserted out of
  // name order, plus explicit edges: the k-way merge must sort them.
  GraphPair g(20);
  g.add({.src_begin = 0, .dst_begin = 10, .count = 4, .src_stride = 0,
         .dst_stride = 1});  // j10..j13
  g.add({.src_begin = 0, .dst_begin = 2, .count = 3, .src_stride = 0,
         .dst_stride = 1});  // j02..j04
  g.add({.src_begin = 0, .dst_begin = 6, .count = 2, .src_stride = 0,
         .dst_stride = 2});  // j06, j08
  g.edge(0, 5);
  g.edge(0, 15);
  g.expect_identical();
  const auto children = children_sorted(g.with_patterns, 0, g.ids);
  const std::vector<std::uint32_t> expected{2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 15};
  EXPECT_EQ(children, expected);
}

TEST(EdgePattern, ExplicitDuplicateOfPatternEdgeIsIgnored) {
  GraphPair g(6);
  g.with_patterns.add_pattern({.src_begin = 0, .dst_begin = 1, .count = 5,
                               .src_stride = 0, .dst_stride = 1},
                              g.ids);
  EXPECT_FALSE(g.with_patterns.add_edge(0, 3, g.ids));
  EXPECT_EQ(g.with_patterns.edge_count(), 5u);
  EXPECT_EQ(g.with_patterns.explicit_edge_count(), 0u);
  // Still exactly one visit per neighbour.
  EXPECT_EQ(children_sorted(g.with_patterns, 0, g.ids).size(), 5u);
}

TEST(EdgePattern, PathExistsTraversesPatternEdges) {
  GraphPair g(13);
  g.add({.src_begin = 0, .dst_begin = 1, .count = 10, .src_stride = 0,
         .dst_stride = 1});
  g.add({.src_begin = 1, .dst_begin = 11, .count = 10, .src_stride = 1,
         .dst_stride = 0});
  g.edge(11, 12);
  EXPECT_TRUE(g.with_patterns.path_exists(0, 12));
  EXPECT_TRUE(g.with_patterns.path_exists(5, 11));
  EXPECT_FALSE(g.with_patterns.path_exists(12, 0));
  EXPECT_FALSE(g.with_patterns.path_exists(3, 7));
}

TEST(EdgePattern, RejectsInvalidPatterns) {
  GraphPair g(10);
  // Zero count.
  EXPECT_THROW(g.with_patterns.add_pattern({.src_begin = 0,
                                            .dst_begin = 1,
                                            .count = 0,
                                            .src_stride = 0,
                                            .dst_stride = 1},
                                           g.ids),
               common::InvalidArgument);
  // Endpoint out of node range (dst(4) == 12 >= 10).
  EXPECT_THROW(g.with_patterns.add_pattern({.src_begin = 0,
                                            .dst_begin = 8,
                                            .count = 5,
                                            .src_stride = 0,
                                            .dst_stride = 1},
                                           g.ids),
               common::InvalidArgument);
  // Both strides zero with count > 1: the same edge count times.
  EXPECT_THROW(g.with_patterns.add_pattern({.src_begin = 0,
                                            .dst_begin = 1,
                                            .count = 2,
                                            .src_stride = 0,
                                            .dst_stride = 0},
                                           g.ids),
               common::InvalidArgument);
  // Self-edge inside the family: src 2,3,4 / dst 0,2,4 collide at i=2.
  EXPECT_THROW(g.with_patterns.add_pattern({.src_begin = 2,
                                            .dst_begin = 0,
                                            .count = 3,
                                            .src_stride = 1,
                                            .dst_stride = 2},
                                           g.ids),
               common::InvalidArgument);
  EXPECT_TRUE(g.with_patterns.patterns().empty());
}

TEST(EdgePattern, RejectsNameNonMonotonicStridedRange) {
  // Handles interned out of lexicographic order: "b" < "z" but "a" breaks
  // the run b(0), z(1), a(2).
  IdTable ids;
  ids.intern("b");
  ids.intern("z");
  ids.intern("a");
  ids.intern("sink");
  WorkflowGraph graph;
  graph.set_node_count(4);
  EXPECT_THROW(graph.add_pattern({.src_begin = 0,
                                  .dst_begin = 3,
                                  .count = 3,
                                  .src_stride = 1,
                                  .dst_stride = 0},
                                 ids),
               common::InvalidArgument);
  // The prefix that IS monotonic is fine.
  graph.add_pattern({.src_begin = 0,
                     .dst_begin = 3,
                     .count = 2,
                     .src_stride = 1,
                     .dst_stride = 0},
                    ids);
  EXPECT_EQ(graph.edge_count(), 2u);
}

TEST(EdgePattern, RejectsMoreThanMaxPatterns) {
  GraphPair g(4);
  for (std::size_t i = 0; i < WorkflowGraph::kMaxPatterns; ++i) {
    g.with_patterns.add_pattern({.src_begin = 0,
                                 .dst_begin = 2,
                                 .count = 1,
                                 .src_stride = 0,
                                 .dst_stride = 0},
                                g.ids);
  }
  EXPECT_THROW(g.with_patterns.add_pattern({.src_begin = 1,
                                            .dst_begin = 3,
                                            .count = 1,
                                            .src_stride = 0,
                                            .dst_stride = 0},
                                           g.ids),
               common::InvalidArgument);
}

TEST(EdgePattern, ConcreteWorkflowEmitsIdenticalDotEitherWay) {
  // End-to-end through a consumer that walks adjacency: DOT emission.
  const auto build = [](bool patterns) {
    ConcreteWorkflow wf("pattern-dot", "sandhills");
    for (std::size_t i = 0; i < 5; ++i) {
      ConcreteJob job;
      job.id = "w" + std::to_string(i);
      job.transformation = "work";
      wf.add_job(std::move(job));
    }
    ConcreteJob sink;
    sink.id = "z_sink";
    sink.transformation = "merge";
    wf.add_job(std::move(sink));
    if (patterns) {
      wf.add_edge_pattern({.src_begin = 0, .dst_begin = 1, .count = 4,
                           .src_stride = 0, .dst_stride = 1});
      wf.add_edge_pattern({.src_begin = 1, .dst_begin = 5, .count = 4,
                           .src_stride = 1, .dst_stride = 0});
    } else {
      for (std::uint32_t i = 1; i <= 4; ++i) {
        wf.add_dependency(0, i);
        wf.add_dependency(i, 5);
      }
    }
    return wf;
  };
  const auto compressed = build(true);
  const auto explicit_wf = build(false);
  EXPECT_EQ(compressed.edge_count(), explicit_wf.edge_count());
  EXPECT_EQ(to_dot(compressed), to_dot(explicit_wf));
}

}  // namespace
}  // namespace pga::wms

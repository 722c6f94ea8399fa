#include "mcs/model/process_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mcs::model {
namespace {

using util::NodeId;

/// Diamond: A -> B, A -> C, B -> D, C -> D.
struct Diamond {
  Application app;
  GraphId g;
  ProcessId a, b, c, d;

  Diamond() {
    g = app.add_graph("G", 100, 100);
    a = app.add_process(g, "A", NodeId(0), 5);
    b = app.add_process(g, "B", NodeId(0), 10);
    c = app.add_process(g, "C", NodeId(0), 20);
    d = app.add_process(g, "D", NodeId(0), 5);
    app.add_dependency(a, b);
    app.add_dependency(a, c);
    app.add_dependency(b, d);
    app.add_dependency(c, d);
  }
};

TEST(ProcessGraph, TopologicalOrderRespectsArcs) {
  Diamond f;
  const auto order = topological_order(f.app, f.g);
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](ProcessId p) {
    return std::find(order.begin(), order.end(), p) - order.begin();
  };
  EXPECT_LT(pos(f.a), pos(f.b));
  EXPECT_LT(pos(f.a), pos(f.c));
  EXPECT_LT(pos(f.b), pos(f.d));
  EXPECT_LT(pos(f.c), pos(f.d));
}

TEST(ProcessGraph, CycleDetected) {
  Application app;
  const auto g = app.add_graph("G", 10, 10);
  const auto a = app.add_process(g, "A", NodeId(0), 1);
  const auto b = app.add_process(g, "B", NodeId(0), 1);
  app.add_dependency(a, b);
  app.add_dependency(b, a);
  EXPECT_THROW((void)topological_order(app, g), std::invalid_argument);
}

/// Two graphs whose ProcessIds interleave: G1 owns p0, p2, p4, p6, p8 and
/// G2 owns q1, q3, q5, q7.
///   G1: p0 -> p6, p0 -> p2 (in that successor order), p4 -> p8, p2 -> p8
///   G2: q7 -> q1, q1 -> q5, q3 -> q5
struct Interleaved {
  Application app;
  GraphId g1, g2;
  ProcessId p0, q1, p2, q3, p4, q5, p6, q7, p8;

  Interleaved() {
    g1 = app.add_graph("G1", 100, 100);
    g2 = app.add_graph("G2", 200, 200);
    p0 = app.add_process(g1, "p0", NodeId(0), 1);
    q1 = app.add_process(g2, "q1", NodeId(0), 1);
    p2 = app.add_process(g1, "p2", NodeId(0), 1);
    q3 = app.add_process(g2, "q3", NodeId(0), 1);
    p4 = app.add_process(g1, "p4", NodeId(0), 1);
    q5 = app.add_process(g2, "q5", NodeId(0), 1);
    p6 = app.add_process(g1, "p6", NodeId(0), 1);
    q7 = app.add_process(g2, "q7", NodeId(0), 1);
    p8 = app.add_process(g1, "p8", NodeId(0), 1);
    app.add_dependency(p0, p6);
    app.add_dependency(p0, p2);
    app.add_dependency(p4, p8);
    app.add_dependency(p2, p8);
    app.add_dependency(q7, q1);
    app.add_dependency(q1, q5);
    app.add_dependency(q3, q5);
  }
};

// Kahn's algorithm with the sources in ascending id order, then FIFO by
// successor order: p4 (a source) precedes p0's successors, and p6 precedes
// p2 because p0 lists it first.
TEST(ProcessGraph, TopologicalOrderIsSortedSourcesThenFifo) {
  const Interleaved f;
  EXPECT_EQ(topological_order(f.app, f.g1),
            (std::vector<ProcessId>{f.p0, f.p4, f.p6, f.p2, f.p8}));
  EXPECT_EQ(topological_order(f.app, f.g2),
            (std::vector<ProcessId>{f.q3, f.q7, f.q1, f.q5}));
}

// The diamond of graph 2, its ids interleaved with graph 1's: results are
// indexed in the graph's own process order.
TEST(ProcessGraph, LongestPathsOnInterleavedDiamond) {
  Application app;
  const auto g1 = app.add_graph("G1", 100, 100);
  const auto g2 = app.add_graph("G2", 100, 100);
  const auto x = app.add_process(g1, "X", NodeId(0), 7);
  const auto a = app.add_process(g2, "A", NodeId(0), 5);
  const auto y = app.add_process(g1, "Y", NodeId(0), 9);
  const auto b = app.add_process(g2, "B", NodeId(0), 10);
  const auto c = app.add_process(g2, "C", NodeId(0), 20);
  const auto d = app.add_process(g2, "D", NodeId(0), 5);
  app.add_dependency(x, y);
  app.add_dependency(a, b);
  app.add_dependency(a, c);
  app.add_dependency(b, d);
  app.add_dependency(c, d);
  EXPECT_EQ(longest_path_to(app, g2), (std::vector<util::Time>{5, 15, 25, 30}));
  EXPECT_EQ(longest_path_from(app, g2), (std::vector<util::Time>{30, 15, 25, 5}));
  EXPECT_EQ(longest_path_to(app, g1), (std::vector<util::Time>{7, 16}));
  EXPECT_EQ(longest_path_from(app, g1), (std::vector<util::Time>{16, 9}));
}

// A cycle in one graph throws from every helper; the other graph, whose
// ids interleave with it, still orders.
TEST(ProcessGraph, CycleThrowsBesideAnAcyclicGraph) {
  Application app;
  const auto ok = app.add_graph("OK", 10, 10);
  const auto cyclic = app.add_graph("CYCLE", 10, 10);
  const auto a = app.add_process(cyclic, "A", NodeId(0), 1);
  const auto p = app.add_process(ok, "P", NodeId(0), 1);
  const auto b = app.add_process(cyclic, "B", NodeId(0), 1);
  const auto q = app.add_process(ok, "Q", NodeId(0), 1);
  app.add_dependency(p, q);
  app.add_dependency(a, b);
  app.add_dependency(b, a);
  EXPECT_EQ(topological_order(app, ok), (std::vector<ProcessId>{p, q}));
  EXPECT_THROW((void)topological_order(app, cyclic), std::invalid_argument);
  EXPECT_THROW((void)longest_path_to(app, cyclic), std::invalid_argument);
  EXPECT_THROW((void)longest_path_from(app, cyclic), std::invalid_argument);
}

TEST(ProcessGraph, SourcesAndSinks) {
  Diamond f;
  EXPECT_EQ(sources(f.app, f.g), std::vector<ProcessId>{f.a});
  EXPECT_EQ(sinks(f.app, f.g), std::vector<ProcessId>{f.d});
}

TEST(ProcessGraph, LongestPaths) {
  Diamond f;
  const auto to = longest_path_to(f.app, f.g);    // indexed per graph order
  const auto from = longest_path_from(f.app, f.g);
  const auto& procs = f.app.graph(f.g).processes;
  auto at = [&](const std::vector<util::Time>& v, ProcessId p) {
    const auto it = std::find(procs.begin(), procs.end(), p);
    return v[static_cast<std::size_t>(it - procs.begin())];
  };
  EXPECT_EQ(at(to, f.a), 5);
  EXPECT_EQ(at(to, f.b), 15);
  EXPECT_EQ(at(to, f.c), 25);
  EXPECT_EQ(at(to, f.d), 30);  // A -> C -> D
  EXPECT_EQ(at(from, f.a), 30);
  EXPECT_EQ(at(from, f.b), 15);
  EXPECT_EQ(at(from, f.c), 25);
  EXPECT_EQ(at(from, f.d), 5);
}

TEST(ProcessGraph, Reaches) {
  Diamond f;
  EXPECT_TRUE(reaches(f.app, f.a, f.d));
  EXPECT_TRUE(reaches(f.app, f.a, f.a));
  EXPECT_FALSE(reaches(f.app, f.b, f.c));
  EXPECT_FALSE(reaches(f.app, f.d, f.a));
}

TEST(ReachabilityIndex, MatchesDirectSearch) {
  Diamond f;
  const ReachabilityIndex idx(f.app);
  for (const ProcessId x : {f.a, f.b, f.c, f.d}) {
    for (const ProcessId y : {f.a, f.b, f.c, f.d}) {
      EXPECT_EQ(idx.reaches(x, y), reaches(f.app, x, y))
          << x.value() << " -> " << y.value();
    }
  }
  EXPECT_TRUE(idx.related(f.a, f.d));
  EXPECT_FALSE(idx.related(f.b, f.c));
}

TEST(ReachabilityIndex, SeparateGraphsNeverReach) {
  Application app;
  const auto g1 = app.add_graph("G1", 10, 10);
  const auto g2 = app.add_graph("G2", 10, 10);
  const auto p = app.add_process(g1, "P", NodeId(0), 1);
  const auto q = app.add_process(g2, "Q", NodeId(0), 1);
  const ReachabilityIndex idx(app);
  EXPECT_FALSE(idx.reaches(p, q));
  EXPECT_FALSE(idx.reaches(q, p));
  EXPECT_TRUE(idx.reaches(p, p));
}

}  // namespace
}  // namespace mcs::model

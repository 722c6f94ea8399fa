// Design-space exploration on the paper example: enumerates every slot
// order x slot length x priority-assignment combination of a small design
// space and prints the schedulability landscape, illustrating why the
// paper's heuristics search over exactly these knobs.  Ends with a
// simulated Gantt-style trace of the best configuration found.
//
// The grid is embarrassingly parallel, so the points are evaluated with
// util::parallel_for the same way exp::run_campaign shards synthesis jobs:
// every point owns its mutable state (config + analysis) and writes into
// its preassigned slot, and the winner is picked by a deterministic scan
// in grid order afterwards — the output is identical for any thread
// count (DESIGN.md §4).
//
// Run:  ./design_space_exploration
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "mcs/core/degree_of_schedulability.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/parallel.hpp"
#include "mcs/util/table.hpp"

using namespace mcs;

int main() {
  const gen::PaperExample ex = gen::make_paper_example();

  struct GridPoint {
    bool gateway_first = true;
    util::Time slot_len = 8;
    bool p2_high = false;
  };
  std::vector<GridPoint> grid;
  for (const bool gateway_first : {true, false}) {
    for (const util::Time slot_len : {8, 16, 20}) {
      for (const bool p2_high : {false, true}) {
        grid.push_back({gateway_first, slot_len, p2_high});
      }
    }
  }

  struct Point {
    std::string label;
    core::Schedulability delta;
    util::Time response;
    std::int64_t s_total;
    core::SystemConfig cfg;
    sched::TtcSchedule schedule;
  };
  std::vector<Point> landscape(grid.size(),
                               Point{"", {}, 0, 0,
                                     gen::make_figure4_config(ex, gen::Figure4Variant::A),
                                     {}});

  util::parallel_for(util::default_workers(), grid.size(), [&](std::size_t i) {
    const GridPoint& gp = grid[i];
    std::vector<arch::Slot> slots;
    const arch::Slot sg{ex.ng, 20};
    const arch::Slot s1{ex.n1, gp.slot_len};
    if (gp.gateway_first) {
      slots = {sg, s1};
    } else {
      slots = {s1, sg};
    }
    core::SystemConfig cfg(ex.app,
                           arch::TdmaRound(std::move(slots), ex.platform.ttp()));
    cfg.set_message_priority(ex.m1, 0);
    cfg.set_message_priority(ex.m2, 1);
    cfg.set_message_priority(ex.m3, 2);
    cfg.set_process_priority(ex.p2, gp.p2_high ? 0 : 1);
    cfg.set_process_priority(ex.p3, gp.p2_high ? 1 : 0);

    const auto mcs = core::multi_cluster_scheduling(ex.app, ex.platform, cfg,
                                                    core::McsOptions{});
    const auto delta = core::degree_of_schedulability(ex.app, mcs.analysis);
    char label[96];
    std::snprintf(label, sizeof label, "%s, |S1|=%lld, %s",
                  gp.gateway_first ? "S_G first" : "S_1 first",
                  static_cast<long long>(gp.slot_len),
                  gp.p2_high ? "P2>P3" : "P3>P2");
    landscape[i] = Point{label, delta,
                         mcs.analysis.graph_response[ex.g1.index()],
                         mcs.analysis.buffers.total(), cfg, mcs.schedule};
  });

  // Deterministic winner: first-best in grid order, independent of which
  // worker finished when.
  std::size_t best = 0;
  for (std::size_t i = 1; i < landscape.size(); ++i) {
    if (landscape[i].delta < landscape[best].delta) best = i;
  }
  const core::SystemConfig best_cfg = landscape[best].cfg;
  const sched::TtcSchedule best_schedule = landscape[best].schedule;

  std::sort(landscape.begin(), landscape.end(),
            [](const Point& a, const Point& b) { return a.delta < b.delta; });

  util::Table table({"configuration", "delta f1", "delta f2", "r_G1", "s_total"});
  for (const Point& p : landscape) {
    table.add_row({p.label, util::Table::fmt(p.delta.f1),
                   util::Table::fmt(p.delta.f2), util::Table::fmt(p.response),
                   util::Table::fmt(p.s_total)});
  }
  std::printf("Design-space landscape (deadline %lld), best first:\n",
              static_cast<long long>(ex.app.graph(ex.g1).deadline));
  table.print(std::cout);

  // Execution trace of the winner.
  sim::SimOptions options;
  options.record_trace = true;
  const auto sim =
      sim::simulate(ex.app, ex.platform, best_cfg, best_schedule, options);
  std::printf("\nExecution trace of the best configuration (TDMA %s):\n%s",
              best_cfg.tdma().to_string().c_str(), sim.trace.to_string().c_str());
  return 0;
}

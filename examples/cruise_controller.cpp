// The paper's real-life case study (§6): a 40-process vehicle cruise
// controller on 2 TTC + 2 ETC nodes + gateway, deadline 250 ms.
//
// Runs the synthesis strategies the paper compares —
//   SF  (straightforward configuration, no search),
//   OS  (OptimizeSchedule: greedy bus access + HOPA priorities),
//   OR  (OptimizeResources: OS seeds + buffer hill-climbing),
//   SAR (simulated annealing of the buffer need, started from OR)
// — and prints end-to-end response, schedulability verdict and total
// buffer need for each, mirroring the paper's narrative (SF misses the
// deadline; OS meets it comfortably; OR trims the buffer memory and lands
// within 6% of the SAR reference).
//
// Run:  ./cruise_controller
#include <cstdio>
#include <iostream>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/cruise_control.hpp"
#include "mcs/util/table.hpp"

using namespace mcs;

int main() {
  const gen::CruiseController cc = gen::make_cruise_controller();
  std::printf("cruise controller: %zu processes, %zu messages, deadline %lld ms\n",
              cc.app.num_processes(), cc.app.num_messages(),
              static_cast<long long>(cc.deadline));

  const core::MoveContext ctx(cc.app, cc.platform, core::McsOptions{});

  util::Table table({"strategy", "response [ms]", "deadline met", "s_total [B]",
                     "evaluations"});

  // SF: ascending slot order, minimal lengths, deadline-monotonic priorities.
  const auto sf = core::straightforward(ctx);
  table.add_row({"SF",
                 util::Table::fmt(sf.evaluation.mcs.analysis.graph_response[0]),
                 sf.evaluation.schedulable ? "yes" : "NO",
                 util::Table::fmt(sf.evaluation.s_total), "1"});

  // OS: greedy slot sequence/length search with HOPA priorities.
  core::OptimizeScheduleOptions os_options;
  const auto os = core::optimize_schedule(ctx, os_options);
  table.add_row({"OS",
                 util::Table::fmt(os.best_eval.mcs.analysis.graph_response[0]),
                 os.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(os.best_eval.s_total),
                 util::Table::fmt(static_cast<std::int64_t>(os.evaluations))});

  // OR: buffer minimization from the OS seed solutions.  OR's step 1 is
  // OS with the same (default) options, so the OS result above is reused.
  core::OptimizeResourcesOptions or_options;
  const auto orr = core::optimize_resources(ctx, os, or_options);
  table.add_row({"OR",
                 util::Table::fmt(orr.best_eval.mcs.analysis.graph_response[0]),
                 orr.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(orr.best_eval.s_total),
                 util::Table::fmt(static_cast<std::int64_t>(orr.evaluations))});

  // SAR: the near-optimal buffer reference, annealed from OR's result
  // under the campaign's default evaluation budget.
  core::SaOptions sar_options;
  sar_options.objective = core::SaObjective::BufferSize;
  sar_options.max_evaluations = 250;
  sar_options.seed = 78;
  const auto sar = core::simulated_annealing(ctx, orr.best, sar_options);
  table.add_row({"SAR",
                 util::Table::fmt(sar.best_eval.mcs.analysis.graph_response[0]),
                 sar.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(sar.best_eval.s_total),
                 util::Table::fmt(static_cast<std::int64_t>(sar.evaluations))});

  table.print(std::cout);

  if (orr.best_eval.schedulable && os.best_eval.schedulable &&
      os.best_eval.s_total > 0) {
    const double reduction =
        100.0 * static_cast<double>(os.best_eval.s_total - orr.best_eval.s_total) /
        static_cast<double>(os.best_eval.s_total);
    std::printf("\nOR reduced the buffer need by %.1f%% relative to OS "
                "(paper: 24%%).\n", reduction);
  }
  if (orr.best_eval.schedulable && sar.best_eval.schedulable &&
      sar.best_eval.s_total > 0) {
    const double gap =
        100.0 * static_cast<double>(orr.best_eval.s_total - sar.best_eval.s_total) /
        static_cast<double>(sar.best_eval.s_total);
    std::printf("OR vs SAR gap: %.1f%% (paper: 6%%)\n", gap);
  }

  std::printf("\nFinal TDMA round (OR): %s\n",
              orr.best.tdma.to_string().c_str());
  return 0;
}

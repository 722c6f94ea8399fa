// §6 real-life example: the vehicle cruise controller.
//
// Paper's reported numbers on its (unpublished) Volvo model:
//   SF : end-to-end response 320 ms > 250 ms deadline (unschedulable)
//   OS : 185 ms, schedulable (SAS matched this)
//   OS buffers: 1020 bytes; OR: -24%; OR within 6% of SAR.
//
// Our reconstructed 40-process model reproduces the shape: SF misses the
// deadline, OS restores schedulability with a comfortable margin, OR
// trims the buffer need and lands close to the SAR reference.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mcs/gen/cruise_control.hpp"
#include "mcs/util/table.hpp"

using namespace mcs;

int main() {
  const bench::Profile profile = bench::Profile::from_env();
  const auto cc = gen::make_cruise_controller();
  std::printf("Cruise controller: %zu processes, %zu messages, D = %lld ms\n\n",
              cc.app.num_processes(), cc.app.num_messages(),
              static_cast<long long>(cc.deadline));

  const core::MoveContext ctx(cc.app, cc.platform, core::McsOptions{});
  util::Table table({"strategy", "response [ms]", "schedulable", "s_total [B]",
                     "time [s]", "paper"});

  bench::Stopwatch sw_sf;
  const auto sf = core::straightforward(ctx);
  table.add_row({"SF", util::Table::fmt(sf.evaluation.mcs.analysis.graph_response[0]),
                 sf.evaluation.schedulable ? "yes" : "NO",
                 util::Table::fmt(sf.evaluation.s_total),
                 util::Table::fmt(sw_sf.seconds(), 2), "320 ms, NO"});

  bench::Stopwatch sw_os;
  const auto os = core::optimize_schedule(ctx, profile.os_options());
  table.add_row({"OS", util::Table::fmt(os.best_eval.mcs.analysis.graph_response[0]),
                 os.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(os.best_eval.s_total),
                 util::Table::fmt(sw_os.seconds(), 2), "185 ms, yes"});

  bench::Stopwatch sw_sas;
  const auto sas = core::simulated_annealing(
      ctx, os.best, profile.sa_options(core::SaObjective::Schedulability, 77));
  table.add_row({"SAS",
                 util::Table::fmt(sas.best_eval.mcs.analysis.graph_response[0]),
                 sas.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(sas.best_eval.s_total),
                 util::Table::fmt(sw_sas.seconds(), 2), "185 ms, yes"});

  bench::Stopwatch sw_or;
  auto or_options = profile.or_options();
  or_options.max_seed_starts = 4;
  or_options.max_climb_iterations = 24;
  or_options.neighbors_per_step = 48;
  // Step 1 options equal profile.os_options(), so OR reuses the OS run.
  const auto orr = core::optimize_resources(ctx, os, or_options);
  table.add_row({"OR", util::Table::fmt(orr.best_eval.mcs.analysis.graph_response[0]),
                 orr.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(orr.best_eval.s_total),
                 util::Table::fmt(sw_or.seconds(), 2), "-24% buffers vs OS"});

  bench::Stopwatch sw_sar;
  const auto sar = core::simulated_annealing(
      ctx, orr.best, profile.sa_options(core::SaObjective::BufferSize, 78));
  table.add_row({"SAR",
                 util::Table::fmt(sar.best_eval.mcs.analysis.graph_response[0]),
                 sar.best_eval.schedulable ? "yes" : "NO",
                 util::Table::fmt(sar.best_eval.s_total),
                 util::Table::fmt(sw_sar.seconds(), 2), "OR within 6% of SAR"});

  table.print(std::cout);

  if (os.best_eval.schedulable && orr.best_eval.schedulable) {
    const double cut =
        100.0 *
        static_cast<double>(orr.s_total_before - orr.best_eval.s_total) /
        static_cast<double>(orr.s_total_before);
    std::printf("\nOR buffer reduction vs OS: %.1f%% (paper: 24%%)\n", cut);
  }
  if (orr.best_eval.schedulable && sar.best_eval.schedulable &&
      sar.best_eval.s_total > 0) {
    const double gap =
        100.0 *
        static_cast<double>(orr.best_eval.s_total - sar.best_eval.s_total) /
        static_cast<double>(sar.best_eval.s_total);
    std::printf("OR vs SAR gap: %.1f%% (paper: 6%%)\n", gap);
  }
  return 0;
}

#include "mcs/core/hopa.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "mcs/model/process_graph.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::core {

namespace {

using model::Application;
using model::GraphId;
using util::MessageId;
using util::ProcessId;
using util::Time;

/// Artificial local deadlines for every activity (process or message),
/// measured from the graph release.  Used only to order priorities.
struct LocalDeadlines {
  std::vector<double> process;  ///< by ProcessId
  std::vector<double> message;  ///< by MessageId
};

/// Initial distribution: the deadline share of an activity is its
/// completion fraction along the WCET-weighted longest path through it.
LocalDeadlines initial_deadlines(const Application& app,
                                 const arch::Platform& platform) {
  LocalDeadlines ld;
  ld.process.assign(app.num_processes(), 0.0);
  ld.message.assign(app.num_messages(), 0.0);

  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const GraphId g(static_cast<GraphId::underlying_type>(gi));
    const auto to = model::longest_path_to(app, g);      // incl. self
    const auto from = model::longest_path_from(app, g);  // incl. self
    const auto& procs = app.graph(g).processes;
    const double deadline = static_cast<double>(app.graph(g).deadline);
    for (std::size_t i = 0; i < procs.size(); ++i) {
      const auto& p = app.process(procs[i]);
      const double through =
          static_cast<double>(to[i] + from[i] - p.wcet);  // path length via i
      const double fraction =
          through > 0 ? static_cast<double>(to[i]) / through : 1.0;
      ld.process[procs[i].index()] = deadline * fraction;
    }
  }
  // A message inherits the sender's local deadline plus an epsilon so it
  // orders right after the sender; communication cost is refined by the
  // iterative redistribution.
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const auto& m = app.messages()[mi];
    ld.message[mi] = ld.process[m.src.index()] + 0.5;
  }
  (void)platform;
  return ld;
}

/// Deadline-monotonic priorities per domain: smaller local deadline =
/// higher priority (smaller value).  Unique by stable tie-break on id.
void assign_deadline_monotonic(const LocalDeadlines& ld,
                               std::vector<Priority>& proc_out,
                               std::vector<Priority>& msg_out) {
  std::vector<std::size_t> order(ld.process.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ld.process[a] < ld.process[b];
  });
  proc_out.assign(ld.process.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    proc_out[order[rank]] = static_cast<Priority>(rank);
  }

  order.assign(ld.message.size(), 0);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ld.message[a] < ld.message[b];
  });
  msg_out.assign(ld.message.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    msg_out[order[rank]] = static_cast<Priority>(rank);
  }
}

HopaResult run_hopa(const Application& app, const arch::Platform& platform,
                    const arch::TdmaRound& tdma, const McsOptions& mcs_options,
                    AnalysisWorkspace& workspace, const HopaOptions& options) {
  const obs::Span hopa_span("hopa.run");
  LocalDeadlines ld = initial_deadlines(app, platform);

  HopaResult best;
  bool have_best = false;

  for (int iter = 0; iter < std::max(1, options.max_iterations); ++iter) {
    const obs::Span iter_span("hopa.iteration", static_cast<std::uint64_t>(iter));
    std::vector<Priority> proc_prio, msg_prio;
    assign_deadline_monotonic(ld, proc_prio, msg_prio);

    SystemConfig cfg(app, tdma);
    for (std::size_t i = 0; i < proc_prio.size(); ++i) {
      cfg.set_process_priority(ProcessId(static_cast<ProcessId::underlying_type>(i)),
                               proc_prio[i]);
    }
    for (std::size_t i = 0; i < msg_prio.size(); ++i) {
      cfg.set_message_priority(MessageId(static_cast<MessageId::underlying_type>(i)),
                               msg_prio[i]);
    }
    McsResult mcs = multi_cluster_scheduling(
        app, platform, cfg, sched::ScheduleConstraints::none(app), mcs_options,
        workspace);
    ++best.runs;
    const Schedulability delta = degree_of_schedulability(app, mcs.analysis);

    // Redistribute: new local deadline = observed worst-case completion,
    // scaled so each graph's slowest activity lands on the graph deadline.
    // Activities that consume more of the end-to-end response receive a
    // proportionally larger deadline share (and thus a lower priority
    // relative to the ones that finish early) — the HOPA feedback loop.
    const auto& a = mcs.analysis;
    for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
      const auto& graph = app.graphs()[gi];
      const double response = std::max<double>(
          1.0, static_cast<double>(a.graph_response[gi]));
      const double scale = static_cast<double>(graph.deadline) / response;
      for (const ProcessId p : graph.processes) {
        const double completion = static_cast<double>(
            a.process_offsets[p.index()] + a.process_response[p.index()]);
        // Damped update keeps the ordering from oscillating.
        ld.process[p.index()] = 0.5 * ld.process[p.index()] +
                                0.5 * std::max(1.0, completion * scale);
      }
      for (const MessageId m : graph.messages) {
        const double delivery = static_cast<double>(a.message_delivery[m.index()]);
        ld.message[m.index()] = 0.5 * ld.message[m.index()] +
                                0.5 * std::max(1.0, delivery * scale);
      }
    }

    // Kept last: the redistribution above still reads this round's analysis.
    if (!have_best || delta < best.delta) {
      best.process_priorities = std::move(proc_prio);
      best.message_priorities = std::move(msg_prio);
      best.delta = delta;
      best.mcs = std::move(mcs);
      best.best_iteration = iter + 1;
      have_best = true;
    }
  }
  return best;
}

}  // namespace

HopaResult initial_deadline_monotonic(const Application& app,
                                      const arch::Platform& platform) {
  HopaResult result;
  const LocalDeadlines ld = initial_deadlines(app, platform);
  assign_deadline_monotonic(ld, result.process_priorities,
                            result.message_priorities);
  return result;
}

HopaResult hopa_priorities(const Application& app, const arch::Platform& platform,
                           const arch::TdmaRound& tdma,
                           AnalysisWorkspace& workspace, const HopaOptions& options) {
  return run_hopa(app, platform, tdma, McsOptions{}, workspace, options);
}

HopaResult hopa_priorities(const MoveContext& ctx, const arch::TdmaRound& tdma,
                           const HopaOptions& options) {
  return run_hopa(ctx.app(), ctx.platform(), tdma, ctx.mcs_options(),
                  ctx.workspace(), options);
}

}  // namespace mcs::core

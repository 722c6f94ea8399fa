#include "mcs/core/multi_cluster_scheduling.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcs/obs/trace.hpp"
#include "mcs/util/hash.hpp"
#include "mcs/util/log.hpp"

namespace mcs::core {

bool McsResult::schedulable(const model::Application& app) const {
  return is_schedulable(app, analysis, analysis.process_offsets);
}

namespace {

/// FNV-1a hash of a TTC schedule (the pass -1 trace record).
[[nodiscard]] std::uint64_t schedule_hash(const sched::TtcSchedule& ttc) {
  util::Fnv1a h;
  h.update(static_cast<std::int64_t>(ttc.process_start.size()));
  for (const util::Time t : ttc.process_start) h.update(t);
  h.update(static_cast<std::int64_t>(ttc.message_slot.size()));
  for (const auto& slot : ttc.message_slot) {
    if (!slot) {
      h.update(std::int64_t{-1});
      continue;
    }
    h.update(static_cast<std::int64_t>(slot->slot_index));
    h.update(slot->first_round);
    h.update(slot->rounds);
    h.update(slot->tx_start);
    h.update(slot->delivery);
  }
  h.update(ttc.makespan);
  h.update(std::int64_t{ttc.feasible ? 1 : 0});
  return h.digest();
}

/// One MultiClusterScheduling fixed-point run (Figure 5).  `replay` lets
/// the run replay the component records earlier runs left in the workspace
/// (DESIGN.md §2 "Component records") and enables the final-iteration
/// elision.  With it off this is exactly the plain algorithm.
///
/// `constraints` is taken by value: the loop mutates its process_release
/// entries as worst-case ETC->TTC deliveries feed back.
McsResult mcs_run(const model::Application& app, const arch::Platform& platform,
                  SystemConfig& config, sched::ScheduleConstraints constraints,
                  const McsOptions& options, AnalysisWorkspace& workspace,
                  bool replay) {
  McsResult result;
  DeltaStats& stats = workspace.delta_stats();
  std::vector<AnalysisWorkspace::TraceRecord>* sink = workspace.trace_sink();

  // Sampling is keyed off the workspace's deterministic run counter (which
  // advances on every run, traced or not), so the set of sampled runs is
  // identical across reruns and never depends on wall clock.
  const std::uint64_t run_index = workspace.next_obs_run();
  const bool sampled =
      obs::tracing_enabled() && run_index % obs::kAnalysisSampleEvery == 0;
  workspace.set_obs_sampled(sampled);
  std::optional<obs::Span> run_span;
  if (sampled) run_span.emplace("mcs.run", run_index);

  AnalysisInput input;
  input.app = &app;
  input.platform = &platform;
  input.config = &config;
  input.ttc_schedule = &result.schedule;
  input.options = options.analysis;
  PassLoopResult loop;

  std::vector<util::Time> previous_offsets;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::optional<obs::Span> iter_span;
    if (sampled) iter_span.emplace("mcs.iteration", static_cast<std::uint64_t>(iter));

    // phi = StaticScheduling(Gamma, rho, beta): list scheduling under the
    // current worst-case ETC->TTC delivery constraints.
    workspace.list_program().run(config.tdma(), constraints, result.schedule);
    for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
      const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
      if (platform.is_tt(app.process(p).node)) {
        config.set_process_offset(p, result.schedule.process_start[pi]);
      }
    }
    if (sink != nullptr) {
      sink->push_back({iter, -1, schedule_hash(result.schedule)});
    }

    // rho = ResponseTimeAnalysis(Gamma, phi, pi): the pass loop only; the
    // result is exported once, from the final iteration's state.
    loop = response_time_analysis(input, workspace, static_cast<std::size_t>(iter),
                                  replay);

    // Feed worst-case ETC->TTC deliveries back as TT release constraints.
    // Only gateway-bound (ET->TT) messages can generate constraints; the
    // workspace precomputed that pool, so the scan skips everything else.
    bool constraints_changed = false;
    const std::vector<util::Time>& delivered = workspace.state().d_m;
    for (const util::MessageId m : workspace.et_to_tt()) {
      const util::ProcessId dst = app.message(m).dst;
      const util::Time delivery = delivered[m.index()];
      if (delivery > constraints.process_release[dst.index()]) {
        constraints.process_release[dst.index()] = delivery;
        constraints_changed = true;
      }
    }

    // phi fixed point: schedule offsets stable and no new constraints.
    if (!constraints_changed &&
        result.schedule.process_start == previous_offsets) {
      result.converged = loop.converged;
      break;
    }

    // With unchanged constraints the next iteration re-runs list_schedule
    // on identical inputs and the analysis on an identical configuration:
    // a deterministic replay of this iteration that is guaranteed to hit
    // the fixed-point exit.  Elide it, reporting the iteration count the
    // plain loop would reach.  Exact in every mode; DeltaMode::Off and the
    // Check oracle still run it, so the seed path stays untouched.
    if (replay && !constraints_changed && iter + 1 < options.max_iterations) {
      result.iterations = iter + 2;
      result.converged = loop.converged;
      ++stats.elided_iterations;
      break;
    }
    previous_offsets = result.schedule.process_start;
  }

  if (result.iterations > 0) result.analysis = export_analysis(input, workspace, loop);

  // Publish the derived offsets (ET releases, message offsets) into phi.
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
    config.set_process_offset(p, result.analysis.process_offsets[pi]);
  }
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const util::MessageId m(static_cast<util::MessageId::underlying_type>(mi));
    config.set_message_offset(m, result.analysis.message_offsets[mi]);
  }

  if (!result.converged) {
    MCS_LOG(Debug) << "multi_cluster_scheduling: no fixed point after "
                   << result.iterations << " iterations";
  }

  workspace.set_obs_sampled(false);
  stats.record_run(result.iterations);
  return result;
}

}  // namespace

McsResult multi_cluster_scheduling(const model::Application& app,
                                   const arch::Platform& platform,
                                   SystemConfig& config,
                                   const sched::ScheduleConstraints& extra_constraints,
                                   const McsOptions& options,
                                   AnalysisWorkspace& workspace) {
  sched::ScheduleConstraints constraints = extra_constraints;
  if (constraints.process_release.empty()) {
    constraints.process_release.assign(app.num_processes(), 0);
  }
  if (constraints.message_tx.empty()) {
    constraints.message_tx.assign(app.num_messages(), 0);
  }

  const DeltaMode mode = workspace.delta_mode();
  DeltaStats& stats = workspace.delta_stats();
  if (mode == DeltaMode::Off) {
    ++stats.full_runs;
    return mcs_run(app, platform, config, std::move(constraints), options,
                   workspace, /*replay=*/false);
  }
  ++stats.delta_runs;
  if (mode == DeltaMode::On) {
    return mcs_run(app, platform, config, std::move(constraints), options,
                   workspace, /*replay=*/true);
  }

  // DeltaMode::Check: run the replaying path against a scratch copy of the
  // configuration, then the plain algorithm against the real one, and
  // require field-by-field identity.
  SystemConfig scratch_config = config;
  McsResult delta_result =
      mcs_run(app, platform, scratch_config, constraints, options, workspace,
              /*replay=*/true);

  std::vector<AnalysisWorkspace::TraceRecord>* sink = workspace.trace_sink();
  workspace.set_trace_sink(nullptr);
  McsResult cold = mcs_run(app, platform, config, std::move(constraints),
                           options, workspace, /*replay=*/false);
  workspace.set_trace_sink(sink);

  ++stats.checked;
  std::string why;
  bool same = bit_identical(delta_result, cold, &why);
  if (same && scratch_config.process_offsets() != config.process_offsets()) {
    same = false;
    why = "published process offsets differ";
  }
  if (same && scratch_config.message_offsets() != config.message_offsets()) {
    same = false;
    why = "published message offsets differ";
  }
  if (!same) {
    ++stats.mismatches;
    throw std::logic_error(
        "multi_cluster_scheduling: delta/full mismatch (MCS_DELTA_CHECK): " +
        why);
  }
  return cold;
}

McsResult multi_cluster_scheduling(const model::Application& app,
                                   const arch::Platform& platform,
                                   SystemConfig& config,
                                   const sched::ScheduleConstraints& extra_constraints,
                                   const McsOptions& options,
                                   const model::ReachabilityIndex& reachability) {
  AnalysisWorkspace workspace(app, platform, reachability);
  return multi_cluster_scheduling(app, platform, config, extra_constraints,
                                  options, workspace);
}

McsResult multi_cluster_scheduling(const model::Application& app,
                                   const arch::Platform& platform,
                                   SystemConfig& config, const McsOptions& options) {
  AnalysisWorkspace workspace(app, platform);
  return multi_cluster_scheduling(app, platform, config,
                                  sched::ScheduleConstraints::none(app), options,
                                  workspace);
}

namespace {

[[nodiscard]] bool same_assignment(const std::optional<sched::MessageSlotAssignment>& a,
                                   const std::optional<sched::MessageSlotAssignment>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->slot_index == b->slot_index && a->first_round == b->first_round &&
         a->rounds == b->rounds && a->tx_start == b->tx_start &&
         a->delivery == b->delivery;
}

[[nodiscard]] bool mcs_field(const char* name, bool same, std::string* why) {
  if (same) return true;
  if (why != nullptr) *why = std::string("McsResult::") + name + " differs";
  return false;
}

}  // namespace

bool bit_identical(const McsResult& a, const McsResult& b, std::string* why) {
  if (!mcs_field("converged", a.converged == b.converged, why)) return false;
  if (!mcs_field("iterations", a.iterations == b.iterations, why)) return false;
  if (!mcs_field("schedule.process_start",
                 a.schedule.process_start == b.schedule.process_start, why)) {
    return false;
  }
  if (!mcs_field("schedule.makespan", a.schedule.makespan == b.schedule.makespan,
                 why)) {
    return false;
  }
  if (!mcs_field("schedule.feasible", a.schedule.feasible == b.schedule.feasible,
                 why)) {
    return false;
  }
  if (!mcs_field("schedule.problems", a.schedule.problems == b.schedule.problems,
                 why)) {
    return false;
  }
  if (!mcs_field("schedule.message_slot",
                 a.schedule.message_slot.size() == b.schedule.message_slot.size(),
                 why)) {
    return false;
  }
  for (std::size_t mi = 0; mi < a.schedule.message_slot.size(); ++mi) {
    if (!mcs_field("schedule.message_slot",
                   same_assignment(a.schedule.message_slot[mi],
                                   b.schedule.message_slot[mi]),
                   why)) {
      return false;
    }
  }
  return bit_identical(a.analysis, b.analysis, why);
}

}  // namespace mcs::core

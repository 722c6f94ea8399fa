#include "mcs/core/multi_cluster_scheduling.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/hash.hpp"
#include "mcs/util/log.hpp"

namespace mcs::core {

bool McsResult::schedulable(const model::Application& app) const {
  return is_schedulable(app, analysis, analysis.process_offsets);
}

namespace {

using McsBase = AnalysisWorkspace::McsBase;
using McsIterRecord = AnalysisWorkspace::McsIterRecord;

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

/// Whether the pass-4 drain reads the same calendar from both rounds:
/// whether the gateway owns a slot, that slot's offset and length, and the
/// round length.
[[nodiscard]] bool same_drain_calendar(const arch::TdmaRound& a,
                                       const arch::TdmaRound& b,
                                       util::NodeId gateway) {
  const bool owned = a.owns_slot(gateway);
  if (a.round_length() != b.round_length() || owned != b.owns_slot(gateway)) {
    return false;
  }
  if (!owned) return true;
  const std::size_t sa = a.slot_of(gateway);
  const std::size_t sb = b.slot_of(gateway);
  return a.slot_offset(sa) == b.slot_offset(sb) &&
         a.slot(sa).length == b.slot(sb).length;
}

/// Differences between the current inputs and the recorded base run's.
/// Priorities propagate through the per-component dirtiness; the TDMA
/// round reaches the analysis only through the TTC schedule (pass 1) and
/// the gateway drain calendar (pass 4).
struct DeltaDirt {
  const std::vector<std::uint8_t>* proc = nullptr;  ///< per ProcessId
  const std::vector<Priority>* base_proc_prio = nullptr;  ///< base run's pi
  bool msg = false;  ///< any CAN-borne message priority differs
  /// TDMA round and message pins equal the base's: list_schedule's inputs
  /// then differ at most in the per-iteration release constraints.
  bool same_round_and_tx = false;
  bool ttp_calendar = false;  ///< the gateway drain calendar differs
};

/// One MultiClusterScheduling fixed-point run (Figure 5).  `base` enables
/// the incremental machinery against a recorded previous run (nullptr =
/// cold); `capture` records this run as the next base (nullptr = don't).
/// With both null this is exactly the plain algorithm.
///
/// `constraints` is taken by value: the loop mutates its process_release
/// entries as worst-case ETC->TTC deliveries feed back.
McsResult mcs_run(const model::Application& app, const arch::Platform& platform,
                  SystemConfig& config, sched::ScheduleConstraints constraints,
                  const McsOptions& options, AnalysisWorkspace& workspace,
                  const McsBase* base, McsBase* capture, const DeltaDirt& dirt) {
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

  std::vector<util::Time> previous_offsets;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::optional<obs::Span> iter_span;
    if (sampled) iter_span.emplace("mcs.iteration", static_cast<std::uint64_t>(iter));

    const McsIterRecord* rec = nullptr;
    if (base != nullptr &&
        static_cast<std::size_t>(iter) < base->iter_record.size()) {
      rec = &base->records[base->iter_record[static_cast<std::size_t>(iter)]];
    }

    // phi = StaticScheduling(Gamma, rho, beta): list scheduling under the
    // current worst-case ETC->TTC delivery constraints.  list_schedule is
    // a pure function of (app, platform, tdma, constraints), so an equal
    // round, equal message pins and equal release constraints replay the
    // recorded schedule verbatim.
    if (rec != nullptr && dirt.same_round_and_tx &&
        constraints.process_release == rec->constraints_release) {
      result.schedule = rec->schedule;
      ++stats.schedule_memo_hits;
    } else {
      result.schedule = sched::list_schedule(app, platform, config.tdma(),
                                             constraints, workspace.critical_path());
    }
    for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
      const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
      if (platform.is_tt(app.process(p).node)) {
        config.set_process_offset(p, result.schedule.process_start[pi]);
      }
    }
    if (sink != nullptr) {
      sink->push_back({iter, -1, schedule_hash(result.schedule)});
    }

    McsIterRecord* cap_rec = nullptr;
    if (capture != nullptr) {
      if (capture->records.size() <= capture->records_used) {
        capture->records.emplace_back();
      }
      cap_rec = &capture->records[capture->records_used];
      capture->iter_record.push_back(capture->records_used);
      ++capture->records_used;
      cap_rec->constraints_release = constraints.process_release;
      cap_rec->schedule = result.schedule;
    }

    // rho = ResponseTimeAnalysis(Gamma, phi, pi).
    AnalysisInput input;
    input.app = &app;
    input.platform = &platform;
    input.config = &config;
    input.ttc_schedule = &result.schedule;
    input.options = options.analysis;
    RtaDelta rta_delta;
    const RtaDelta* delta = nullptr;
    if (rec != nullptr) {
      rta_delta.base = &rec->traj;
      rta_delta.proc_prio_changed = dirt.proc;
      rta_delta.base_process_priorities = dirt.base_proc_prio;
      rta_delta.msg_prio_dirty = dirt.msg;
      rta_delta.ttp_calendar_dirty = dirt.ttp_calendar;
      delta = &rta_delta;
    }
    workspace.set_trace_iteration(iter);
    result.analysis = response_time_analysis(
        input, workspace, delta, cap_rec != nullptr ? &cap_rec->traj : nullptr);

    // Feed worst-case ETC->TTC deliveries back as TT release constraints.
    // Only gateway-bound (ET->TT) messages can generate constraints; the
    // workspace precomputed that pool, so the scan skips everything else.
    bool constraints_changed = false;
    for (const util::MessageId m : workspace.et_to_tt()) {
      const util::ProcessId dst = app.message(m).dst;
      const util::Time delivery = result.analysis.message_delivery[m.index()];
      if (delivery > constraints.process_release[dst.index()]) {
        constraints.process_release[dst.index()] = delivery;
        constraints_changed = true;
      }
    }

    // phi fixed point: schedule offsets stable and no new constraints.
    if (!constraints_changed &&
        result.schedule.process_start == previous_offsets) {
      result.converged = result.analysis.converged;
      break;
    }

    // With unchanged constraints the next iteration re-runs list_schedule
    // on identical inputs and the analysis on an identical configuration:
    // a deterministic replay of this iteration that is guaranteed to hit
    // the fixed-point exit.  Elide it (recording-enabled modes only, so
    // DeltaMode::Off preserves the historical iteration count exactly).
    if (capture != nullptr && !constraints_changed &&
        iter + 1 < options.max_iterations) {
      result.iterations = iter + 2;
      result.converged = result.analysis.converged;
      capture->iter_record.push_back(capture->iter_record.back());
      ++stats.elided_iterations;
      break;
    }
    previous_offsets = result.schedule.process_start;
  }

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
  if (obs::metrics_enabled()) {
    static constexpr std::int64_t kIterBounds[] = {1, 2, 3, 4, 6, 8, 12, 16};
    static const obs::Histogram h =
        obs::histogram("mcs.iterations_per_run", kIterBounds);
    h.record(result.iterations);
  }
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
  if (mode == DeltaMode::Off) {
    return mcs_run(app, platform, config, std::move(constraints), options,
                   workspace, nullptr, nullptr, DeltaDirt{});
  }

  DeltaStats& stats = workspace.delta_stats();
  McsBase& base = workspace.mcs_base();

  // Delta eligibility: only a change of the analysis options or the
  // iteration cap falls back to a cold run (which re-captures a fresh
  // base).  The TDMA round and the pins are inputs the schedule memo and
  // pass 4 compare themselves; passes 2 and 3 compare their state inputs
  // against the base snapshot at the same (iteration, pass) coordinate.
  const bool eligible = base.valid &&
                        same_options(options.analysis, base.analysis_options) &&
                        options.max_iterations == base.max_iterations;

  DeltaDirt dirt;
  if (eligible) {
    dirt.same_round_and_tx =
        std::ranges::equal(config.tdma().slots(), base.tdma->slots()) &&
        constraints.message_tx == base.pins_tx;
    dirt.ttp_calendar =
        !same_drain_calendar(config.tdma(), *base.tdma, workspace.gateway());
    std::vector<std::uint8_t>& flags = workspace.prio_changed_scratch();
    for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
      const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
      flags[pi] =
          config.process_priority(p) != base.process_priorities[pi] ? 1 : 0;
    }
    dirt.proc = &flags;
    dirt.base_proc_prio = &base.process_priorities;
    for (const util::MessageId m : workspace.can_messages()) {
      if (config.message_priority(m) != base.message_priorities[m.index()]) {
        dirt.msg = true;
        break;
      }
    }
  }
  if (eligible) {
    ++stats.delta_runs;
  } else {
    ++stats.full_runs;
    if (base.valid) ++stats.fallbacks;
  }

  // Prepare the capture buffer: the current inputs, no records.
  McsBase& capture = workspace.mcs_capture();
  capture.valid = false;
  capture.tdma = config.tdma();
  capture.pins_tx = constraints.message_tx;
  capture.analysis_options = options.analysis;
  capture.max_iterations = options.max_iterations;
  capture.process_priorities.resize(app.num_processes());
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
    capture.process_priorities[pi] = config.process_priority(p);
  }
  capture.message_priorities.resize(app.num_messages());
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const util::MessageId m(static_cast<util::MessageId::underlying_type>(mi));
    capture.message_priorities[mi] = config.message_priority(m);
  }
  capture.records_used = 0;
  capture.iter_record.clear();

  if (mode == DeltaMode::On) {
    McsResult result =
        mcs_run(app, platform, config, std::move(constraints), options,
                workspace, eligible ? &base : nullptr, &capture, dirt);
    capture.valid = true;
    workspace.commit_mcs_capture();
    return result;
  }

  // DeltaMode::Check: run the incremental path against a scratch copy of
  // the configuration, then the plain algorithm against the real one, and
  // require field-by-field identity.  The capture/commit happens on the
  // incremental leg so the check exercises exactly the machinery that
  // DeltaMode::On would use, base records included.
  SystemConfig scratch_config = config;
  McsResult delta_result =
      mcs_run(app, platform, scratch_config, constraints, options, workspace,
              eligible ? &base : nullptr, &capture, dirt);
  capture.valid = true;
  workspace.commit_mcs_capture();

  std::vector<AnalysisWorkspace::TraceRecord>* sink = workspace.trace_sink();
  workspace.set_trace_sink(nullptr);
  McsResult cold = mcs_run(app, platform, config, std::move(constraints),
                           options, workspace, nullptr, nullptr, DeltaDirt{});
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

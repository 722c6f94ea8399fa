#include "mcs/core/response_time_analysis.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "mcs/core/gateway_analysis.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/math.hpp"

namespace mcs::core {

namespace {

using model::Application;
using model::Message;
using model::Process;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

/// Number of activations of interferer j that can fall inside a level-i
/// busy window.
///
///  * `window`  — length of the busy window, anchored at i's release;
///  * `ji`      — i's own release jitter: i's actual release may drift
///                this far past its offset, shifting the window right and
///                scooping up later j releases;
///  * `jj`      — j's release jitter;
///  * `phase`   — (O_j - O_i) mod T_j, the offset phase of j's first
///                release at/after i's;
///  * `tj`      — j's period;
///  * `span_j`  — worst-case time an instance of j stays pending after
///                its release (used for carry-in: an instance released
///                BEFORE i's window can still be unserved at its start).
///
/// The boundary convention floor(x/T)+1 for x >= 0 counts a simultaneous
/// release as one activation, matching the critical instant and giving
/// the recurrence a non-degenerate least fixed point.
[[nodiscard]] std::int64_t interfering_activations(Time window, Time ji, Time jj,
                                                   Time phase, Time tj,
                                                   Time span_j) {
  const Time x = window + ji + jj - phase;
  std::int64_t n = (x < 0) ? 0 : x / tj + 1;
  // Carry-in: the previous instance of j released `distance` before the
  // window anchor; it contributes when it can still be pending then.
  const Time distance = (phase == 0) ? tj : tj - phase;
  if (span_j + ji > distance) {
    n += util::ceil_div(span_j + ji - distance, tj);
  }
  return n;
}

/// Where run_component looks for a matching component record, in this
/// order (DESIGN.md §2 "Component records"): the record an earlier run
/// left at this (MCS iteration, pass) coordinate, the one this run left at
/// the previous pass, and the one this run's previous MCS iteration left
/// at this pass.
enum RecordSource : std::size_t {
  kEarlierRun,
  kPreviousPass,
  kPreviousIteration,
  kRecordSources
};

/// All mutable per-activity state of the fixed-point iteration (owned by
/// the AnalysisWorkspace so repeated runs reuse the allocations).  Every
/// field is monotonically non-decreasing across iterations, which (with
/// the divergence cap) guarantees termination.
using State = AnalysisWorkspace::State;

/// Per-call view: configuration-dependent quantities plus const references
/// into the workspace's hoisted invariant structure.
struct Ctx {
  const Application& app;
  const arch::Platform& platform;
  const SystemConfig& cfg;
  const sched::TtcSchedule& ttc;
  const AnalysisOptions& opt;
  const model::ReachabilityIndex& reach;
  AnalysisWorkspace& ws;  ///< pools, packed scratch, delta stats

  const std::vector<MessageRoute>& route;
  const std::vector<Time>& can_tx;       ///< C_m on the CAN bus (0 if not CAN-borne)
  const std::vector<MessageId>& can_messages;
  const std::vector<MessageId>& et_to_tt;
  const std::vector<MessageId>& tt_to_et;
  const std::vector<std::vector<MessageId>>& out_ni_by_node;
  const std::vector<std::vector<ProcessId>>& topo;  ///< per graph
  bool has_sg_slot = false;
  std::size_t sg_slot = 0;
  Time r_transfer = 0;  ///< r_T of the gateway transfer process
  Time cap = 0;         ///< divergence cap
  int diverged = 0;
  bool changed = false;  ///< any state value grew in the current pass
  // Component records of the current pass (DESIGN.md §2).
  Time generation = 0;
  Time* slot = nullptr;  ///< this pass's record slot
  /// The slots run_component looks in, by RecordSource; null = source off.
  std::array<const Time*, kRecordSources> sources{};

  [[nodiscard]] Time period_of(MessageId m) const { return app.period_of(m); }
  [[nodiscard]] Time period_of(ProcessId p) const { return app.period_of(p); }
};

/// Monotone update helper: raises `slot` to `value` (clamped at the cap),
/// recording changes and divergence.
void raise(Ctx& ctx, Time& slot, Time value) {
  if (value > ctx.cap) {
    value = ctx.cap;
    ++ctx.diverged;
  }
  if (value > slot) {
    slot = value;
    ctx.changed = true;
  }
}

[[nodiscard]] bool same_graph(const Ctx& ctx, MessageId a, MessageId b) {
  return ctx.app.message(a).graph == ctx.app.message(b).graph;
}

/// Window-disjointness pruning is sound whenever the two activities have a
/// FIXED phase relationship, i.e. equal periods: all their releases share
/// one hyper-frame, so provably disjoint busy windows never interact (the
/// application behaves as a single transaction with static offsets, in
/// Palencia/Gonzalez Harbour terms).  Differing periods shift phases every
/// period, so only the conservative periodic term applies there.
[[nodiscard]] bool fixed_phase(const Ctx& ctx, MessageId a, MessageId b) {
  return ctx.period_of(a) == ctx.period_of(b);
}

[[nodiscard]] bool fixed_phase_p(const Ctx& ctx, ProcessId a, ProcessId b) {
  return ctx.period_of(a) == ctx.period_of(b);
}

/// Messages are precedence-related when one's destination (transitively)
/// feeds the other's sender: the first is then fully delivered before the
/// second can be enqueued.
[[nodiscard]] bool messages_related(const Ctx& ctx, MessageId a, MessageId b) {
  const Message& ma = ctx.app.message(a);
  const Message& mb = ctx.app.message(b);
  return ctx.reach.reaches(ma.dst, mb.src) || ctx.reach.reaches(mb.dst, ma.src);
}

/// Offset-window pruning (DESIGN.md §3): can higher-priority message j
/// interfere with m?  Conservative "yes" across graphs and whenever the
/// windows might overlap.
[[nodiscard]] bool message_can_interfere(const Ctx& ctx, const State& s,
                                         MessageId j, MessageId m) {
  if (!ctx.opt.offset_pruning) return true;
  if (same_graph(ctx, j, m) && messages_related(ctx, j, m)) return false;
  if (!fixed_phase(ctx, j, m)) return true;
  const Time latest_m = s.o_m[m.index()] + s.j_m[m.index()] + s.w_m[m.index()] +
                        ctx.can_tx[m.index()];
  if (s.d_m[j.index()] <= s.e_m[m.index()]) return false;  // j gone before m exists
  if (s.e_m[j.index()] >= latest_m) return false;  // j arrives after m is done
  return true;
}

/// message_can_interfere with the static parts (graph relation, phase
/// fixedness) pre-resolved to a pair-class byte from the workspace's CAN
/// interfere matrix; only the window comparison reads state.  `latest_m`
/// must be the caller-hoisted o+j+w+tx of m.  Bit-identical to the scalar
/// predicate above — used by the Packed kernel's buffer bounds.
[[nodiscard]] bool message_can_interfere_cls(const Ctx& ctx, const State& s,
                                             std::uint8_t cls, MessageId j,
                                             Time e_m, Time latest_m) {
  if (!ctx.opt.offset_pruning) return true;
  if (cls == AnalysisWorkspace::kPairPruned) return false;
  if (cls == AnalysisWorkspace::kPairAlways) return true;
  if (s.d_m[j.index()] <= e_m) return false;       // j gone before m exists
  if (s.e_m[j.index()] >= latest_m) return false;  // j arrives after m is done
  return true;
}

/// Can lower-priority message k block m (non-preemptive transmission)?
/// k must be able to start transmission strictly before m's latest arrival.
/// Messages of the same sender are enqueued by one send call (or delivered
/// by one TTP frame / transfer invocation), so their arrivals coincide and
/// arbitration always favors the higher priority one: no blocking between
/// them.  This is what makes w_m1 = 0 (and hence J_2 = r_m1 = 15) in the
/// paper's Figure 4a.
[[nodiscard]] bool message_can_block(const Ctx& ctx, const State& s, MessageId k,
                                     MessageId m) {
  if (!ctx.opt.offset_pruning) return true;
  if (ctx.app.message(k).src == ctx.app.message(m).src) return false;
  if (same_graph(ctx, k, m) && messages_related(ctx, k, m)) return false;
  if (!fixed_phase(ctx, k, m)) return true;
  if (s.e_m[k.index()] >= s.o_m[m.index()] + s.j_m[m.index()]) return false;
  if (s.d_m[k.index()] <= s.e_m[m.index()]) return false;
  return true;
}

[[nodiscard]] bool process_can_interfere(const Ctx& ctx, const State& s,
                                         ProcessId j, ProcessId i) {
  if (!ctx.opt.offset_pruning) return true;
  if (ctx.app.process(j).graph == ctx.app.process(i).graph &&
      ctx.reach.related(j, i)) {
    return false;
  }
  if (!fixed_phase_p(ctx, j, i)) return true;
  // s.w_p is the full busy window (own WCET included).
  const Time latest_i =
      s.o_p[i.index()] + s.j_p[i.index()] +
      std::max(s.w_p[i.index()], ctx.app.process(i).wcet);
  if (s.o_p[j.index()] + s.r_p[j.index()] <= s.e_p[i.index()]) return false;
  if (s.e_p[j.index()] >= latest_i) return false;
  return true;
}

/// Phase of activity j relative to activity i: (O_j - O_i) mod T_j.
[[nodiscard]] Time relative_phase(Time oj, Time oi, Time tj) {
  return util::floor_mod(oj - oi, tj);
}

/// ---- Pass 1: propagate offsets / jitters along each graph ------------
///
/// Topological order guarantees every predecessor's current (monotone)
/// values are available.  TT quantities are pinned by the schedule; ET
/// quantities derive from their inputs.  The two kernels share the
/// per-process updates below and differ only in how a sweep reaches them.

/// A TT process: pinned by the static schedule; deterministic start.
void visit_tt(Ctx& ctx, State& s, std::size_t pi, Time start, Time wcet) {
  raise(ctx, s.o_p[pi], start);
  raise(ctx, s.e_p[pi], start);
  s.j_p[pi] = 0;
  s.w_p[pi] = 0;
  raise(ctx, s.r_p[pi], wcet);
}

/// An ET process, given its earliest release (all inputs present) and the
/// worst-case arrival of its latest input: jitter spans between them.
void visit_et(Ctx& ctx, State& s, std::size_t pi, Time release, Time latest,
              Time wcet) {
  raise(ctx, s.o_p[pi], release);
  raise(ctx, s.e_p[pi], release);
  raise(ctx, s.j_p[pi], std::max<Time>(0, latest - s.o_p[pi]));
  // s.w_p is the full busy window (>= wcet once the recurrence ran).
  raise(ctx, s.r_p[pi], s.j_p[pi] + std::max(s.w_p[pi], wcet));
}

/// Outgoing message `mi` of process `pi` (WCET `wcet`).
void visit_out(Ctx& ctx, State& s, std::size_t pi, Time wcet, std::size_t mi,
               MessageRoute route) {
  switch (route) {
    case MessageRoute::Local: {
      raise(ctx, s.o_m[mi], s.o_p[pi]);
      raise(ctx, s.e_m[mi], s.o_p[pi] + wcet);
      s.j_m[mi] = 0;
      s.w_m[mi] = 0;
      raise(ctx, s.r_m[mi], s.r_p[pi]);
      raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
      break;
    }
    case MessageRoute::TtToTt:
    case MessageRoute::TtToEt: {
      const auto& assignment = ctx.ttc.message_slot[mi];
      if (!assignment) {
        // Infeasible schedule: treat as diverged.
        raise(ctx, s.d_m[mi], ctx.cap);
        raise(ctx, s.r_m[mi], ctx.cap);
        break;
      }
      if (route == MessageRoute::TtToTt) {
        s.o_m[mi] = assignment->tx_start;
        s.e_m[mi] = assignment->delivery;
        s.j_m[mi] = 0;
        s.w_m[mi] = 0;
        raise(ctx, s.r_m[mi], assignment->delivery - assignment->tx_start);
        raise(ctx, s.d_m[mi], assignment->delivery);
      } else {
        // CAN leg starts at the TTP delivery into the gateway MBI.
        s.o_m[mi] = assignment->delivery;
        s.e_m[mi] = assignment->delivery;
        s.j_m[mi] = ctx.r_transfer;  // r_T of the transfer process
        raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
        raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
      }
      break;
    }
    case MessageRoute::EtToEt:
    case MessageRoute::EtToTt: {
      raise(ctx, s.o_m[mi], s.o_p[pi]);
      raise(ctx, s.e_m[mi], s.o_p[pi] + wcet);
      raise(ctx, s.j_m[mi], s.r_p[pi]);
      if (route == MessageRoute::EtToEt) {
        raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
        raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
      }
      // EtToTt: r/d are finalized by the OutTTP drain pass.
      break;
    }
  }
}

/// Reference pass 1: sweeps every process, reading the application model.
void propagate(Ctx& ctx, State& s) {
  const Application& app = ctx.app;
  for (const std::vector<ProcessId>& order : ctx.topo) {
    for (const ProcessId pid : order) {
      const Process& p = app.process(pid);
      const std::size_t pi = pid.index();
      if (ctx.platform.is_tt(p.node)) {
        visit_tt(ctx, s, pi, ctx.cfg.process_offset(pid), p.wcet);
      } else {
        Time release = 0;  // earliest release (accounting offset O)
        Time latest = 0;   // latest arrival over all inputs
        for (const MessageId mid : p.in_messages) {
          Time arc_release = 0;
          switch (ctx.route[mid.index()]) {
            case MessageRoute::Local: {
              const Process& sp = app.process(app.message(mid).src);
              arc_release = s.o_p[app.message(mid).src.index()] + sp.wcet;
              break;
            }
            case MessageRoute::TtToEt:
              // Paper convention: available at the end of the TTP slot.
              arc_release = s.o_m[mid.index()];
              break;
            case MessageRoute::EtToEt:
              arc_release = s.e_m[mid.index()] + ctx.can_tx[mid.index()];
              break;
            default:
              // EtToTt / TtToTt arcs never target an ET process.
              arc_release = s.o_m[mid.index()];
              break;
          }
          release = std::max(release, arc_release);
          latest = std::max(latest, s.d_m[mid.index()]);
        }
        // Pure-precedence arcs (same node): release after predecessor.
        for (const ProcessId pred : p.predecessors) {
          bool via_message = false;
          for (const MessageId mid : p.in_messages) {
            if (app.message(mid).src == pred) {
              via_message = true;
              break;
            }
          }
          if (via_message) continue;
          release = std::max(release, s.o_p[pred.index()] + app.process(pred).wcet);
          latest = std::max(latest, s.o_p[pred.index()] + s.r_p[pred.index()]);
        }
        visit_et(ctx, s, pi, release, latest, p.wcet);
      }
      for (const MessageId mid : p.out_messages) {
        visit_out(ctx, s, pi, p.wcet, mid.index(), ctx.route[mid.index()]);
      }
    }
  }
}

/// Packed pass 1: runs the workspace's compiled program and visits only
/// dirty processes (AnalysisWorkspace::Pass1Program).  A visit reads only
/// its process's inputs, its own values and per-run constants, and each
/// of its raises reads values the visit wrote before it, so a visit whose
/// inputs and own values have not changed since its last visit this run
/// repeats it exactly: same values, no raise fires.  Skipping it is exact
/// unless that visit attempted an over-cap raise, which must count again
/// (such a process stays dirty).  A visit that raised anything marks the
/// processes that read the values it writes; they follow it in the sweep.
void propagate_packed(Ctx& ctx, State& s) {
  AnalysisWorkspace::Pass1Program& prog = ctx.ws.pass1();
  std::uint8_t* dirty = prog.dirty.data();
  const std::vector<Time>& offsets = ctx.cfg.process_offsets();
  const bool outer_changed = ctx.changed;
  bool any_changed = false;
  std::uint64_t skips = 0;
  for (const AnalysisWorkspace::Pass1Program::Op& op : prog.ops) {
    const std::size_t pi = op.pid;
    if (dirty[pi] == 0) {
      ++skips;
      continue;
    }
    ctx.changed = false;
    const int div_before = ctx.diverged;
    if (op.tt) {
      visit_tt(ctx, s, pi, offsets[pi], op.wcet);
    } else {
      Time release = 0;
      Time latest = 0;
      for (std::uint32_t a = op.arcs_begin; a < op.arcs_end; ++a) {
        const AnalysisWorkspace::Pass1Program::Arc& arc = prog.arcs[a];
        switch (arc.kind) {
          case AnalysisWorkspace::Pass1Program::kFromSender:
            release = std::max(release, s.o_p[arc.source] + arc.add);
            latest = std::max(latest, s.d_m[arc.message]);
            break;
          case AnalysisWorkspace::Pass1Program::kFromPredecessor:
            release = std::max(release, s.o_p[arc.source] + arc.add);
            latest = std::max(latest, s.o_p[arc.source] + s.r_p[arc.source]);
            break;
          case AnalysisWorkspace::Pass1Program::kFromOffset:
            release = std::max(release, s.o_m[arc.source]);
            latest = std::max(latest, s.d_m[arc.message]);
            break;
          case AnalysisWorkspace::Pass1Program::kFromCan:
            release = std::max(release, s.e_m[arc.source] + arc.add);
            latest = std::max(latest, s.d_m[arc.message]);
            break;
        }
      }
      visit_et(ctx, s, pi, release, latest, op.wcet);
    }
    for (std::uint32_t o = op.outs_begin; o < op.outs_end; ++o) {
      visit_out(ctx, s, pi, op.wcet, prog.outs[o].message, prog.outs[o].route);
    }
    dirty[pi] = ctx.diverged != div_before ? std::uint8_t{1} : std::uint8_t{0};
    if (ctx.changed) {
      prog.mark_readers(pi);
      any_changed = true;
    }
  }
  ctx.ws.delta_stats().p1_process_skips += skips;
  ctx.changed = outer_changed || any_changed;
}

/// ---- Pass 2: fixed-priority preemptive interference on each ETC node --
///
/// s.w_p holds the FULL level-i busy window including the process's own
/// WCET (preemptions landing while the process executes delay it too);
/// the paper's "interference" I_i = w - C_i is recovered at export time.

void pass2_pool_reference(Ctx& ctx, State& s,
                          const AnalysisWorkspace::ProcPool& pool) {
  const Application& app = ctx.app;
  for (const ProcessId pid : pool.pids) {
    const std::size_t pi = pid.index();
    const Time c_i = app.process(pid).wcet;
    Time w = std::max(s.w_p[pi], c_i);
    for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
      Time next = c_i;  // B_i = 0: no intra-node critical sections modeled
      for (const ProcessId j : pool.pids) {
        if (j == pid) continue;
        if (!ctx.cfg.higher_priority_process(j, pid)) continue;
        if (!process_can_interfere(ctx, s, j, pid)) continue;
        const Time phase =
            relative_phase(s.o_p[j.index()], s.o_p[pi], ctx.period_of(j));
        const Time span_j =
            s.j_p[j.index()] + std::max(s.w_p[j.index()], app.process(j).wcet);
        next += interfering_activations(w, s.j_p[pi], s.j_p[j.index()],
                                        phase, ctx.period_of(j), span_j) *
                app.process(j).wcet;
      }
      if (next > ctx.cap) {
        next = ctx.cap;
        ++ctx.diverged;
      }
      if (next <= w) break;
      w = next;
    }
    raise(ctx, s.w_p[pi], w);
    raise(ctx, s.r_p[pi], s.j_p[pi] + s.w_p[pi]);
  }
}

/// Refreshes one pool's cached candidate lists.  The static
/// candidate relation of member x — "jj != x and prio(jj) < prio(x)",
/// annotated with the baked pair class — depends only on the priority
/// vector and on offset_pruning, so the lists survive every evaluation
/// that leaves both untouched; any change rebuilds every member's list.
/// Under pruning a kPairPruned pair is dropped and a kPairAlways one
/// stored as `always`; without it every pair is stored as `always`.
/// Window-class entries keep their per-pass state checks in the kernel.
/// `rebuild` emits member x's interference list in ascending index order
/// — the exact scan order of the scalar kernels.
template <typename Rebuild>
void refresh_candidates(Ctx& ctx, AnalysisWorkspace::CandidateCache& cc,
                        const Priority* prio, std::size_t n,
                        const Rebuild& rebuild) {
  DeltaStats& stats = ctx.ws.delta_stats();
  const bool prune = ctx.opt.offset_pruning;
  if (cc.valid && cc.pruned == prune && std::equal(prio, prio + n, cc.prio.begin())) {
    ++stats.cand_cache_hits;
    return;
  }
  ++stats.cand_cache_rebuilds;
  for (std::size_t x = 0; x < n; ++x) rebuild(x);
  std::copy(prio, prio + n, cc.prio.begin());
  cc.pruned = prune;
  cc.valid = true;
}

/// Stores candidate k of class `cls` at out[len] unless pruning drops it;
/// returns the new length.
[[nodiscard]] std::uint32_t store_candidate(std::uint32_t* out, std::uint8_t* always,
                                            std::uint32_t len, std::size_t k,
                                            std::uint8_t cls, bool prune) {
  if (prune && cls == AnalysisWorkspace::kPairPruned) return len;
  out[len] = static_cast<std::uint32_t>(k);
  always[len] = !prune || cls == AnalysisWorkspace::kPairAlways;
  return len + 1;
}

/// Phase of j relative to x, (O_j - O_x) mod T_j: almost every offset
/// difference lies in [-T_j, T_j), so it is taken by comparison and
/// divides only outside that range.
[[nodiscard]] Time fast_phase(Time o_j, Time o_x, Time t_j) {
  const Time d = o_j - o_x;
  return (d >= -t_j && d < t_j) ? d + (d < 0 ? t_j : 0) : relative_phase(o_j, o_x, t_j);
}

/// The carry-in count of interfering_activations, ceil(v / T) for v > 0:
/// almost always 0 or 1, so it divides only for v > T.
[[nodiscard]] std::int64_t carry_in_count(Time v, Time t) {
  return (v > 0) + (v > t ? util::ceil_div(v, t) - 1 : 0);
}

/// The activation count x < 0 ? 0 : x / T + 1, dividing only for x >= T.
[[nodiscard]] std::int64_t activation_count(Time x, Time t) {
  return (x >= 0) + (x >= t ? x / t : 0);
}

/// Writes interferer j into slot i of member x's compact candidate
/// arrays.  The carry-in term of interfering_activations never reads the
/// iterated w, so it is returned for the caller to sum once; the rest of
/// the term is stored as the w-independent addend a = J_x + J_j - phase_j,
/// the period and the cost.
[[nodiscard]] Time push_candidate(AnalysisWorkspace::PackedScratch& ps,
                                  std::size_t i, Time j_x, Time o_x, Time o_j,
                                  Time j_j, Time span_j, Time t_j, Time c_j) {
  const Time phase = fast_phase(o_j, o_x, t_j);
  const Time distance = (phase == 0) ? t_j : t_j - phase;
  ps.cand_a[i] = j_x + j_j - phase;
  ps.cand_period[i] = t_j;
  ps.cand_cost[i] = c_j;
  return carry_in_count(span_j + j_x - distance, t_j) * c_j;
}

/// Iterates w = base + sum_i (w + a_i < 0 ? 0 : (w + a_i) / T_i + 1) * C_i
/// over the first `m` candidates from `w` up to its least fixed point
/// (clamped at the divergence cap), exactly like the Reference recurrence.
[[nodiscard]] Time ceiling_sum_fixed_point(Ctx& ctx,
                                           const AnalysisWorkspace::PackedScratch& ps,
                                           std::size_t m, Time base, Time w) {
  const Time* a = ps.cand_a.data();
  const Time* period = ps.cand_period.data();
  const Time* cost = ps.cand_cost.data();
  for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
    Time next = base;
    for (std::size_t i = 0; i < m; ++i) {
      next += activation_count(w + a[i], period[i]) * cost[i];
    }
    if (next > ctx.cap) {
      next = ctx.cap;
      ++ctx.diverged;
    }
    if (next <= w) break;
    w = next;
  }
  return w;
}

/// Stage 1 of a Packed candidate scan: writes each of the `len` cached
/// candidates into ps.survivors and advances the count only for a survivor
/// (one stored as `always`, or one whose `in_window` test holds).  No
/// branch depends on a candidate, because the window outcomes of a scan do
/// not follow a pattern a branch predictor can learn.  Returns the
/// survivor count.
template <typename InWindow>
[[nodiscard]] std::size_t compact_survivors(AnalysisWorkspace::PackedScratch& ps,
                                            const std::uint32_t* cand,
                                            const std::uint8_t* always,
                                            std::uint32_t len,
                                            const InWindow& in_window) {
  std::uint32_t* out = ps.survivors.data();
  std::size_t m = 0;
  for (std::uint32_t t = 0; t < len; ++t) {
    out[m] = cand[t];
    m += always[t] | in_window(cand[t]);
  }
  return m;
}

/// Packed pass-2 kernel: pool state gathered into contiguous scratch
/// arrays, the pruning predicates' static parts resolved to one pair-class
/// byte, and the window anchors of the CURRENT member hoisted out of the
/// recurrence (its own o/e/j/w/r only change after its recurrence
/// finishes).  The candidate scan runs in two stages over the cached
/// priority-compacted list: compact_survivors applies the pruning
/// predicates, then push_candidate fills the candidate arrays for the
/// survivors only, and the recurrence is ceiling_sum_fixed_point over
/// them.  Splitting off the carry-in only regroups an exact integer sum,
/// so the result is bit-identical to the Reference kernel (enforced by
/// soa_layout_test).
void pass2_pool_packed(Ctx& ctx, State& s, const AnalysisWorkspace::ProcPool& pool,
                       std::size_t pool_index) {
  const std::size_t n = pool.pids.size();
  AnalysisWorkspace::PackedScratch& ps = ctx.ws.packed_scratch();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    ps.o[x] = s.o_p[pi];
    ps.e[x] = s.e_p[pi];
    ps.j[x] = s.j_p[pi];
    ps.w[x] = s.w_p[pi];
    ps.r[x] = s.r_p[pi];
    ps.prio[x] = ctx.cfg.process_priority(pool.pids[x]);
  }
  AnalysisWorkspace::CandidateCache& cc = ctx.ws.proc_cand_cache(pool_index);
  const bool prune = ctx.opt.offset_pruning;
  refresh_candidates(ctx, cc, ps.prio.data(), n, [&](std::size_t x) {
    const std::uint8_t* pair = pool.pair.data() + x * n;
    std::uint32_t* out = cc.list.data() + x * n;
    std::uint8_t* always = cc.always.data() + x * n;
    std::uint32_t len = 0;
    for (std::size_t jj = 0; jj < n; ++jj) {
      if (jj == x || !(ps.prio[jj] < ps.prio[x])) continue;
      len = store_candidate(out, always, len, jj, pair[jj], prune);
    }
    cc.len[x] = len;
  });
  for (std::size_t x = 0; x < n; ++x) {
    const Time c_i = pool.wcet[x];
    const Time j_x = ps.j[x];
    const Time latest_x = ps.o[x] + j_x + std::max(ps.w[x], c_i);
    const std::size_t m = compact_survivors(
        ps, cc.list.data() + x * n, cc.always.data() + x * n, cc.len[x],
        [&](std::size_t jj) {
          return (ps.o[jj] + ps.r[jj] > ps.e[x]) & (ps.e[jj] < latest_x);
        });
    Time carry_total = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t jj = ps.survivors[i];
      carry_total += push_candidate(ps, i, j_x, ps.o[x], ps.o[jj], ps.j[jj],
                                    ps.j[jj] + std::max(ps.w[jj], pool.wcet[jj]),
                                    pool.period[jj], pool.wcet[jj]);
    }
    const Time w = ceiling_sum_fixed_point(ctx, ps, m, c_i + carry_total,
                                           std::max(ps.w[x], c_i));
    raise(ctx, ps.w[x], w);
    raise(ctx, ps.r[x], j_x + ps.w[x]);
  }
  AnalysisWorkspace::Pass1Program& p1 = ctx.ws.pass1();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    if (ps.w[x] == s.w_p[pi] && ps.r[x] == s.r_p[pi]) continue;
    s.w_p[pi] = ps.w[x];
    s.r_p[pi] = ps.r[x];
    p1.mark_process(pi);
  }
}

/// ---- Component records (DESIGN.md §2) --------------------------------
///
/// A pass component — an ETC node pool (pass 2), the CAN bus (pass 3) or
/// the OutTTP drain (pass 4) — is a pure function of its entry: a few
/// State fields of its members plus a key of per-run constants
/// (priorities, the gateway calendar), under one set of analysis options
/// (the record generation).  Its record holds {generation, divergence
/// increment, key, entry, fields left}, so a record whose generation, key
/// and entry match the current ones replays exactly: raising to the stored
/// fields reproduces `changed` (the component itself only raises them, or
/// assigns the first `assigned` of them), and adding the stored increment
/// reproduces the divergence count.
///
/// Which pass-1 processes a member that grew marks dirty, as the kernel's
/// writeback does (AnalysisWorkspace::Pass1Program).
enum class Marks { kNone, kProcess, kMessage };

template <std::size_t E, std::size_t L, typename Id>
struct Component {
  const std::vector<Id>& ids;
  std::size_t record;  ///< offset of the record in a slot
  std::span<const Time> key;
  std::array<const std::vector<Time>*, E> entry;
  std::array<std::vector<Time>*, L> left;
  std::size_t assigned;  ///< left fields assigned rather than raised
  Marks marks;

  [[nodiscard]] std::size_t size() const noexcept {
    return AnalysisWorkspace::record_size(ids.size(), key.size(), E, L);
  }
};

template <std::size_t E, std::size_t L, typename Id>
[[nodiscard]] bool record_matches(const Ctx& ctx, const Time* rec,
                                  const Component<E, L, Id>& c) {
  if (rec[0] != ctx.generation ||
      !std::ranges::equal(c.key, std::span(rec + 2, c.key.size()))) {
    return false;
  }
  const Time* stored = rec + 2 + c.key.size();
  const std::size_t n = c.ids.size();
  for (const std::vector<Time>* field : c.entry) {
    const Time* value = field->data();
    for (std::size_t x = 0; x < n; ++x) {
      if (stored[x] != value[c.ids[x].index()]) return false;
    }
    stored += n;
  }
  return true;
}

template <std::size_t E, std::size_t L, typename Id>
void replay_record(Ctx& ctx, const Time* rec, const Component<E, L, Id>& c) {
  const std::size_t n = c.ids.size();
  const Time* stored = rec + 2 + c.key.size() + E * n;
  for (std::size_t f = 0; f < L; ++f, stored += n) {
    Time* value = c.left[f]->data();
    for (std::size_t x = 0; x < n; ++x) {
      Time& slot = value[c.ids[x].index()];
      if (f < c.assigned) {
        slot = stored[x];
      } else if (stored[x] > slot) {
        slot = stored[x];
        ctx.changed = true;
        if (c.marks == Marks::kProcess) ctx.ws.pass1().mark_process(c.ids[x].index());
        if (c.marks == Marks::kMessage) ctx.ws.pass1().mark_message(c.ids[x].index());
      }
    }
  }
  ctx.diverged += static_cast<int>(rec[1]);
}

/// Gathers the members' values of `fields` into `out`, field-major.
template <typename Fields, typename Id>
Time* store_fields(Time* out, const Fields& fields, const std::vector<Id>& ids) {
  for (const auto* field : fields) {
    for (const Id id : ids) *out++ = (*field)[id.index()];
  }
  return out;
}

/// Runs one component under the record rule: replays the first matching
/// record of its sources (copied forward, so the slot describes this
/// pass), else runs `kernel` and writes the record.
template <std::size_t E, std::size_t L, typename Id, typename Kernel>
void run_component(Ctx& ctx, const Component<E, L, Id>& c, const Kernel& kernel) {
  DeltaStats& stats = ctx.ws.delta_stats();
  Time* rec = ctx.slot + c.record;
  for (std::size_t source = 0; source < kRecordSources; ++source) {
    if (ctx.sources[source] == nullptr) continue;
    const Time* found = ctx.sources[source] + c.record;
    if (!record_matches(ctx, found, c)) continue;
    replay_record(ctx, found, c);
    if (found != rec) std::copy(found, found + c.size(), rec);
    switch (source) {
      case kEarlierRun: ++stats.components_skipped; break;
      case kPreviousPass: stats.intra_skips += c.ids.size(); break;
      case kPreviousIteration: ++stats.iteration_skips; break;
    }
    return;
  }
  if (ctx.sources[kEarlierRun] != nullptr) ++stats.components_recomputed;
  rec[0] = ctx.generation;
  std::ranges::copy(c.key, rec + 2);
  Time* left = store_fields(rec + 2 + c.key.size(), c.entry, c.ids);
  const int div_before = ctx.diverged;
  kernel();
  rec[1] = ctx.diverged - div_before;
  store_fields(left, c.left, c.ids);
}

/// Pass-2 driver: each ETC node pool is one component.
void pass2(Ctx& ctx, State& s) {
  const std::vector<AnalysisWorkspace::ProcPool>& pools = ctx.ws.proc_pools();
  std::vector<Time>& key = ctx.ws.packed_scratch().key;
  for (std::size_t pool_index = 0; pool_index < pools.size(); ++pool_index) {
    const AnalysisWorkspace::ProcPool& pool = pools[pool_index];
    for (std::size_t x = 0; x < pool.pids.size(); ++x) {
      key[x] = ctx.cfg.process_priority(pool.pids[x]);
    }
    const Component<AnalysisWorkspace::kPoolEntry, AnalysisWorkspace::kPoolLeft,
                    ProcessId>
        pool_component{.ids = pool.pids,
                       .record = ctx.ws.record_layout().pool[pool_index],
                       .key = std::span(key.data(), pool.pids.size()),
                       .entry = {&s.o_p, &s.e_p, &s.j_p, &s.w_p, &s.r_p},
                       .left = {&s.w_p, &s.r_p},
                       .assigned = 0,
                       .marks = Marks::kProcess};
    run_component(ctx, pool_component, [&] {
      if (ctx.opt.kernel != AnalysisKernel::Reference) {
        pass2_pool_packed(ctx, s, pool, pool_index);
      } else {
        pass2_pool_reference(ctx, s, pool);
      }
    });
  }
}

/// ---- Pass 3: CAN bus arbitration (OutNi and OutCAN queuing, §4.1.1) ---
void can_message_recurrences(Ctx& ctx, State& s) {
  for (const MessageId mid : ctx.can_messages) {
    const std::size_t mi = mid.index();
    Time w = s.w_m[mi];
    for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
      // Blocking: largest lower-priority frame that can be in flight.
      Time blocking = 0;
      for (const MessageId k : ctx.can_messages) {
        if (k == mid) continue;
        if (ctx.cfg.higher_priority_message(k, mid)) continue;  // k is hp
        if (!message_can_block(ctx, s, k, mid)) continue;
        blocking = std::max(blocking, ctx.can_tx[k.index()]);
      }
      Time next = blocking;
      for (const MessageId j : ctx.can_messages) {
        if (j == mid) continue;
        if (!ctx.cfg.higher_priority_message(j, mid)) continue;
        if (!message_can_interfere(ctx, s, j, mid)) continue;
        const Time phase = relative_phase(s.o_m[j.index()], s.o_m[mi], ctx.period_of(j));
        const Time span_j =
            s.j_m[j.index()] + s.w_m[j.index()] + ctx.can_tx[j.index()];
        next += interfering_activations(w, s.j_m[mi], s.j_m[j.index()], phase,
                                        ctx.period_of(j), span_j) *
                ctx.can_tx[j.index()];
      }
      if (next > ctx.cap) {
        next = ctx.cap;
        ++ctx.diverged;
      }
      if (next <= w) break;
      w = next;
    }
    raise(ctx, s.w_m[mi], w);
    raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
    if (ctx.route[mi] != MessageRoute::EtToTt) {
      raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
    }
  }
}

/// Packed CAN kernel: the pass-2 treatment (gathered scratch, hoisted
/// window anchors, the two-stage candidate scan, the same ceiling-sum)
/// with cached candidate AND blocking lists, both keyed on the message
/// priority vector and resolved through the precomputed pair-class
/// matrices.  The blocking list is ordered by frame time, largest first,
/// so the blocking term is the frame time of the first entry that can
/// block.
void can_recurrences_packed(Ctx& ctx, State& s) {
  const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
  const std::size_t n = cp.mids.size();
  AnalysisWorkspace::PackedScratch& ps = ctx.ws.packed_scratch();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    ps.o[x] = s.o_m[mi];
    ps.e[x] = s.e_m[mi];
    ps.j[x] = s.j_m[mi];
    ps.w[x] = s.w_m[mi];
    ps.r[x] = s.r_m[mi];
    ps.d[x] = s.d_m[mi];
    ps.prio[x] = ctx.cfg.message_priority(cp.mids[x]);
  }
  AnalysisWorkspace::CandidateCache& cc = ctx.ws.can_cand_cache();
  const bool prune = ctx.opt.offset_pruning;
  refresh_candidates(ctx, cc, ps.prio.data(), n, [&](std::size_t x) {
    const std::uint8_t* interfere = cp.interfere.data() + x * n;
    const std::uint8_t* block = cp.block.data() + x * n;
    std::uint32_t len = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == x || !(ps.prio[k] < ps.prio[x])) continue;
      len = store_candidate(cc.list.data() + x * n, cc.always.data() + x * n, len, k,
                            interfere[k], prune);
    }
    cc.len[x] = len;
    std::uint32_t blen = 0;
    for (const std::uint32_t k : cp.by_tx) {
      if (k == x || ps.prio[k] < ps.prio[x]) continue;
      blen = store_candidate(cc.blk_list.data() + x * n, cc.blk_always.data() + x * n,
                             blen, k, block[k], prune);
    }
    cc.blk_len[x] = blen;
  });
  for (std::size_t x = 0; x < n; ++x) {
    const Time latest_x = ps.o[x] + ps.j[x] + ps.w[x] + cp.tx[x];
    const Time arrival_x = ps.o[x] + ps.j[x];
    const Time j_x = ps.j[x];
    Time blocking = 0;
    {
      const std::uint32_t* blk = cc.blk_list.data() + x * n;
      const std::uint8_t* always = cc.blk_always.data() + x * n;
      const std::uint32_t blen = cc.blk_len[x];
      for (std::uint32_t t = 0; t < blen; ++t) {
        const std::size_t k = blk[t];
        if (always[t] || (ps.e[k] < arrival_x && ps.d[k] > ps.e[x])) {
          blocking = cp.tx[k];
          break;
        }
      }
    }
    const std::size_t m = compact_survivors(
        ps, cc.list.data() + x * n, cc.always.data() + x * n, cc.len[x],
        [&](std::size_t jj) {
          return (ps.d[jj] > ps.e[x]) & (ps.e[jj] < latest_x);
        });
    Time carry_total = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t jj = ps.survivors[i];
      carry_total += push_candidate(ps, i, j_x, ps.o[x], ps.o[jj], ps.j[jj],
                                    ps.j[jj] + ps.w[jj] + cp.tx[jj], cp.period[jj],
                                    cp.tx[jj]);
    }
    const Time w =
        ceiling_sum_fixed_point(ctx, ps, m, blocking + carry_total, ps.w[x]);
    raise(ctx, ps.w[x], w);
    raise(ctx, ps.r[x], ps.j[x] + ps.w[x] + cp.tx[x]);
    if (cp.is_et_to_tt[x] == 0) {
      raise(ctx, ps.d[x], ps.o[x] + ps.r[x]);
    }
  }
  AnalysisWorkspace::Pass1Program& p1 = ctx.ws.pass1();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    if (ps.w[x] == s.w_m[mi] && ps.r[x] == s.r_m[mi] && ps.d[x] == s.d_m[mi]) {
      continue;
    }
    s.w_m[mi] = ps.w[x];
    s.r_m[mi] = ps.r[x];
    s.d_m[mi] = ps.d[x];
    p1.mark_message(mi);
  }
}

/// Pass-3 driver: the CAN bus is one component — the lp blocking term
/// couples every message to every other regardless of priority order.
void pass3(Ctx& ctx, State& s) {
  const std::size_t n = ctx.can_messages.size();
  if (n == 0) return;
  std::vector<Time>& key = ctx.ws.packed_scratch().key;
  for (std::size_t x = 0; x < n; ++x) {
    key[x] = ctx.cfg.message_priority(ctx.can_messages[x]);
  }
  const Component<AnalysisWorkspace::kCanEntry, AnalysisWorkspace::kCanLeft,
                  MessageId>
      bus{.ids = ctx.can_messages,
          .record = ctx.ws.record_layout().can,
          .key = std::span(key.data(), n),
          .entry = {&s.o_m, &s.e_m, &s.j_m, &s.w_m, &s.d_m, &s.r_m},
          .left = {&s.w_m, &s.r_m, &s.d_m},
          .assigned = 0,
          .marks = Marks::kMessage};
  run_component(ctx, bus, [&] {
    if (ctx.opt.kernel != AnalysisKernel::Reference) {
      can_recurrences_packed(ctx, s);
    } else {
      can_message_recurrences(ctx, s);
    }
  });
}

/// ---- Pass 4: OutTTP FIFO drain through the gateway slot (§4.1.2) ------

/// No gateway slot: ET->TT traffic can never be delivered.
void out_ttp_undeliverable(Ctx& ctx, State& s) {
  for (const MessageId mid : ctx.et_to_tt) {
    if (s.d_m[mid.index()] < ctx.cap) ++ctx.diverged;
    raise(ctx, s.d_m[mid.index()], ctx.cap);
    raise(ctx, s.r_m[mid.index()], ctx.cap);
  }
}

void out_ttp_drain(Ctx& ctx, State& s) {
  const Application& app = ctx.app;
  for (const MessageId mid : ctx.et_to_tt) {
    const std::size_t mi = mid.index();
    // Worst-case arrival into OutTTP: CAN leg complete.
    Time arrival = s.o_m[mi] + s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi];
    if (arrival > ctx.cap) arrival = ctx.cap;

    // I_m: bytes ahead of m in the FIFO.  OutTTP is ordered by ARRIVAL,
    // not by priority, so any other ET->TT message instance that can reach
    // the gateway no later than m — regardless of CAN priority — may sit
    // ahead of it (the paper's hp-only count under-approximates a FIFO;
    // see DESIGN.md §3).  The arrival window of m spans its own arrival
    // jitter J_m + w_m + C_m; an instance of j arriving earlier still
    // counts while it can remain queued (ttp residency carry-in).
    const Time m_arrival_spread = s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi];
    std::int64_t bytes_ahead = 0;
    for (const MessageId j : ctx.et_to_tt) {
      if (j == mid) continue;
      if (!message_can_interfere(ctx, s, j, mid)) continue;
      const Time arrival_jitter_j =
          s.j_m[j.index()] + s.w_m[j.index()] + ctx.can_tx[j.index()];
      const Time span_j = arrival_jitter_j + s.ttp_wait[j.index()];
      const Time phase =
          relative_phase(s.o_m[j.index()], s.o_m[mi], ctx.period_of(j));
      bytes_ahead += interfering_activations(m_arrival_spread, 0, arrival_jitter_j,
                                             phase, ctx.period_of(j), span_j) *
                     app.message(j).size_bytes;
    }
    const TtpDrainResult drain =
        ttp_drain(ctx.cfg.tdma(), ctx.sg_slot, arrival,
                  app.message(mid).size_bytes + bytes_ahead,
                  ctx.opt.ttp_queue_model);
    // Derived quantities (recomputed each pass; the final pass, which runs
    // with the converged inputs, leaves the reported values).
    s.i_m[mi] = bytes_ahead;
    s.ttp_wait[mi] = std::min(drain.wait, ctx.cap);
    raise(ctx, s.d_m[mi], std::min(drain.delivery, ctx.cap));
    raise(ctx, s.r_m[mi], s.d_m[mi] - s.o_m[mi]);
  }
}

/// Packed OutTTP drain: the members' state gathered into scratch in
/// et_to_tt order, updated in place in the same Gauss-Seidel order as the
/// Reference drain (a member's wait and delivery feed the members after
/// it), with the static part of the interference predicate read from the
/// CAN pool's interfere classes and the phase and both activation counts
/// taken by compare-before-divide.
void out_ttp_drain_packed(Ctx& ctx, State& s) {
  const AnalysisWorkspace::TtpPool& tp = ctx.ws.ttp_pool();
  const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
  const std::size_t n = tp.mids.size();
  AnalysisWorkspace::PackedScratch& ps = ctx.ws.packed_scratch();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = tp.mids[x].index();
    ps.o[x] = s.o_m[mi];
    ps.e[x] = s.e_m[mi];
    ps.j[x] = s.j_m[mi] + s.w_m[mi] + tp.tx[x];  // arrival spread J + w + C
    ps.r[x] = s.r_m[mi];
    ps.d[x] = s.d_m[mi];
    ps.wait[x] = s.ttp_wait[mi];
  }
  const bool prune = ctx.opt.offset_pruning;
  for (std::size_t x = 0; x < n; ++x) {
    const Time spread_x = ps.j[x];
    const Time latest_x = ps.o[x] + spread_x;
    const std::uint8_t* cls = cp.interfere.data() + tp.can[x] * cp.mids.size();
    std::int64_t bytes_ahead = 0;
    for (std::size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      const std::uint8_t c = cls[tp.can[y]];
      if (prune && c != AnalysisWorkspace::kPairAlways &&
          (c == AnalysisWorkspace::kPairPruned || ps.d[y] <= ps.e[x] ||
           ps.e[y] >= latest_x)) {
        continue;
      }
      const Time t_y = tp.period[y];
      const Time phase = fast_phase(ps.o[y], ps.o[x], t_y);
      const Time distance = (phase == 0) ? t_y : t_y - phase;
      bytes_ahead += (activation_count(spread_x + ps.j[y] - phase, t_y) +
                      carry_in_count(ps.j[y] + ps.wait[y] - distance, t_y)) *
                     tp.size[y];
    }
    const TtpDrainResult drain =
        ttp_drain(ctx.cfg.tdma(), ctx.sg_slot, std::min(latest_x, ctx.cap),
                  tp.size[x] + bytes_ahead, ctx.opt.ttp_queue_model);
    s.i_m[tp.mids[x].index()] = bytes_ahead;
    ps.wait[x] = std::min(drain.wait, ctx.cap);
    raise(ctx, ps.d[x], std::min(drain.delivery, ctx.cap));
    raise(ctx, ps.r[x], ps.d[x] - ps.o[x]);
  }
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = tp.mids[x].index();
    s.ttp_wait[mi] = ps.wait[x];
    s.d_m[mi] = ps.d[x];
    s.r_m[mi] = ps.r[x];
  }
}

/// Pass-4 driver: the OutTTP FIFO is one component (arrival order couples
/// all ET->TT messages).  Its key is the drain calendar: whether the
/// gateway owns a slot, that slot's offset and length, and the round
/// length.  Message priorities do NOT matter here: the FIFO count is
/// priority-blind (message_can_interfere's state checks use none).
///
/// Pass 4 marks no pass-1 process: it only writes i/ttp_wait/d/r of ET->TT
/// messages, and pass 1 reads none of those slots (an ET->TT destination
/// is a TT process, whose visit reads no incoming-message state, and the
/// sender's visit writes only o/e/j of the message).
void pass4(Ctx& ctx, State& s) {
  if (ctx.et_to_tt.empty()) return;
  const arch::TdmaRound& tdma = ctx.cfg.tdma();
  std::vector<Time>& key = ctx.ws.packed_scratch().key;
  key[0] = ctx.has_sg_slot ? 1 : 0;
  key[1] = ctx.has_sg_slot ? tdma.slot_offset(ctx.sg_slot) : 0;
  key[2] = ctx.has_sg_slot ? tdma.slot(ctx.sg_slot).length : 0;
  key[3] = tdma.round_length();
  const Component<AnalysisWorkspace::kTtpEntry, AnalysisWorkspace::kTtpLeft,
                  MessageId>
      drain{.ids = ctx.et_to_tt,
            .record = ctx.ws.record_layout().ttp,
            .key = std::span(key.data(), AnalysisWorkspace::kTtpKey),
            .entry = {&s.o_m, &s.e_m, &s.j_m, &s.w_m, &s.r_m, &s.d_m, &s.ttp_wait},
            .left = {&s.i_m, &s.ttp_wait, &s.d_m, &s.r_m},
            .assigned = 2,
            .marks = Marks::kNone};
  run_component(ctx, drain, [&] {
    if (!ctx.has_sg_slot) {
      out_ttp_undeliverable(ctx, s);
    } else if (ctx.opt.kernel != AnalysisKernel::Reference) {
      out_ttp_drain_packed(ctx, s);
    } else {
      out_ttp_drain(ctx, s);
    }
  });
}

/// ---- Buffer bounds (§4.1.1 - §4.1.2) -----------------------------------
BufferBounds buffer_bounds(const Ctx& ctx, const State& s) {
  const Application& app = ctx.app;
  BufferBounds bounds;

  // Worst-case content of a priority-ordered output queue holding `pool`:
  // the message plus every higher-priority same-queue message instance
  // that can arrive while m waits.
  const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
  auto priority_queue_bound = [&](const std::vector<MessageId>& pool) {
    std::int64_t worst = 0;
    for (const MessageId m : pool) {
      std::int64_t bytes = app.message(m).size_bytes;
      // These queues hold CAN-borne messages only, so the precomputed
      // interfere classes apply (packed kernel; reference keeps the
      // scalar predicate).
      const std::uint8_t* cls_row =
          ctx.opt.kernel != AnalysisKernel::Reference
              ? cp.interfere.data() + cp.index[m.index()] * cp.mids.size()
              : nullptr;
      const Time latest_m = s.o_m[m.index()] + s.j_m[m.index()] +
                            s.w_m[m.index()] + ctx.can_tx[m.index()];
      for (const MessageId j : pool) {
        if (j == m) continue;
        if (!ctx.cfg.higher_priority_message(j, m)) continue;
        if (cls_row != nullptr
                ? !message_can_interfere_cls(ctx, s,
                                             cls_row[cp.index[j.index()]], j,
                                             s.e_m[m.index()], latest_m)
                : !message_can_interfere(ctx, s, j, m)) {
          continue;
        }
        const Time phase =
            relative_phase(s.o_m[j.index()], s.o_m[m.index()], ctx.period_of(j));
        const Time span_j =
            s.j_m[j.index()] + s.w_m[j.index()] + ctx.can_tx[j.index()];
        bytes += interfering_activations(s.w_m[m.index()], s.j_m[m.index()],
                                         s.j_m[j.index()], phase,
                                         ctx.period_of(j), span_j) *
                 app.message(j).size_bytes;
      }
      worst = std::max(worst, bytes);
    }
    return worst;
  };

  bounds.out_can = priority_queue_bound(ctx.tt_to_et);

  // OutNi: one priority queue per ETC node for all messages its processes
  // send onto the CAN bus (pools precomputed in the workspace).
  const auto& by_node = ctx.out_ni_by_node;
  for (std::size_t n = 0; n < by_node.size(); ++n) {
    if (by_node[n].empty()) continue;
    bounds.out_node[NodeId(static_cast<NodeId::underlying_type>(n))] =
        priority_queue_bound(by_node[n]);
  }

  // OutTTP: FIFO of the ET->TT traffic.
  std::int64_t worst_ttp = 0;
  for (const MessageId m : ctx.et_to_tt) {
    worst_ttp =
        std::max(worst_ttp, app.message(m).size_bytes + s.i_m[m.index()]);
  }
  bounds.out_ttp = worst_ttp;
  return bounds;
}

/// The per-call view of `input` over `workspace` (validated).
[[nodiscard]] Ctx make_ctx(const AnalysisInput& input, AnalysisWorkspace& workspace) {
  if (input.app == nullptr || input.platform == nullptr || input.config == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  if (!workspace.matches(*input.app, *input.platform)) {
    throw std::invalid_argument(
        "response_time_analysis: workspace built for a different system");
  }
  // Fallback empty TTC schedule for pure-ET systems.
  const sched::TtcSchedule* ttc = input.ttc_schedule;
  if (ttc == nullptr) ttc = &workspace.empty_ttc_schedule();

  Ctx ctx{*input.app,
          *input.platform,
          *input.config,
          *ttc,
          input.options,
          workspace.reachability(),
          workspace,
          workspace.routes(),
          workspace.can_tx(),
          workspace.can_messages(),
          workspace.et_to_tt(),
          workspace.tt_to_et(),
          workspace.out_ni_by_node(),
          workspace.topo_orders(),
          false,
          0,
          workspace.r_transfer(),
          workspace.divergence_cap(),
          0,
          false};
  // The gateway slot depends on beta (part of the candidate), so it is the
  // one piece of setup resolved per call.
  if (workspace.has_gateway() && ctx.cfg.tdma().owns_slot(workspace.gateway())) {
    ctx.has_sg_slot = true;
    ctx.sg_slot = ctx.cfg.tdma().slot_of(workspace.gateway());
  }
  return ctx;
}

}  // namespace

PassLoopResult response_time_analysis(const AnalysisInput& input,
                                      AnalysisWorkspace& workspace,
                                      std::size_t iteration, bool replay) {
  Ctx ctx = make_ctx(input, workspace);
  State& s = workspace.reset_state();
  ctx.generation = workspace.record_generation(ctx.opt);
  const bool intra = ctx.opt.kernel != AnalysisKernel::Reference;

  int iterations = 0;
  int passes_run = 0;
  for (; iterations < ctx.opt.max_outer_iterations; ++iterations) {
    ctx.changed = false;
    // One span per fixed-point pass, only on runs the workspace sampled
    // (mcs.run counter divisible by obs::kAnalysisSampleEvery).
    std::optional<obs::Span> pass_span;
    if (workspace.obs_sampled()) {
      pass_span.emplace("rta.pass", static_cast<std::uint64_t>(passes_run));
    }
    // Record slots: this pass's, and its sources by RecordSource.  Earlier
    // runs' and the previous MCS iteration's records need replay, so Off
    // and Check's cold leg stay the plain algorithm; the previous pass's
    // needs the Packed kernel.  Past kMaxStoredPasses this pass and the
    // previous one share the last slot, so only the intra-run skip
    // applies there.
    const std::size_t k = static_cast<std::size_t>(passes_run);
    const bool cross = replay && k < AnalysisWorkspace::kMaxStoredPasses;
    ctx.slot = workspace.record_slot(iteration, k);
    ctx.sources = {
        cross ? ctx.slot : nullptr,
        (intra && k > 0) ? workspace.record_slot(iteration, k - 1) : nullptr,
        (cross && iteration > 0) ? workspace.stored_slot(iteration - 1, k)
                                 : nullptr};

    // Pass 1 is the conduit through which every cross-component effect
    // travels; the Packed kernel visits only dirty processes (see
    // propagate_packed).
    if (intra) {
      propagate_packed(ctx, s);
    } else {
      propagate(ctx, s);
    }
    pass2(ctx, s);
    pass3(ctx, s);
    pass4(ctx, s);

    ++passes_run;
    if (std::vector<AnalysisWorkspace::TraceRecord>* sink =
            workspace.trace_sink()) {
      sink->push_back({static_cast<int>(iteration), passes_run - 1, state_hash(s)});
    }
    if (!ctx.changed) break;
  }
  PassLoopResult loop;
  loop.converged =
      (iterations < ctx.opt.max_outer_iterations) && (ctx.diverged == 0);
  loop.outer_iterations = iterations;
  loop.diverged_activities = ctx.diverged;
  return loop;
}

AnalysisResult export_analysis(const AnalysisInput& input, AnalysisWorkspace& workspace,
                               const PassLoopResult& loop) {
  const Ctx ctx = make_ctx(input, workspace);
  const State& s = workspace.state();
  const Application& app = ctx.app;

  AnalysisResult result;
  result.converged = loop.converged;
  result.outer_iterations = loop.outer_iterations;
  result.diverged_activities = loop.diverged_activities;
  result.buffers = buffer_bounds(ctx, s);

  // Graph responses: completion of the latest process (sinks dominate, but
  // the max over all processes is robust to mid-fixed-point offsets).
  result.graph_response.assign(app.num_graphs(), 0);
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const Process& p = app.processes()[pi];
    const Time completion = util::sat_add(s.o_p[pi], s.r_p[pi]);
    result.graph_response[p.graph.index()] =
        std::max(result.graph_response[p.graph.index()], completion);
  }

  // Copy (not move): the State buffers stay with the workspace so the
  // next call reuses their capacity.
  result.process_offsets = s.o_p;
  result.message_offsets = s.o_m;
  result.process_response = s.r_p;
  result.process_jitter = s.j_p;
  // s.w_p is the full busy window; report the paper's interference
  // I_i = w_i - C_i (e.g. I2 = 20 in Figure 4a).
  result.process_interference = s.w_p;
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    result.process_interference[pi] = std::max<Time>(
        0, result.process_interference[pi] - app.processes()[pi].wcet);
  }
  result.message_response = s.r_m;
  result.message_jitter = s.j_m;
  result.message_queue_delay = s.w_m;
  result.message_ttp_wait = s.ttp_wait;
  result.message_bytes_ahead = s.i_m;
  result.message_delivery = s.d_m;

  return result;
}

AnalysisResult response_time_analysis(const AnalysisInput& input,
                                      AnalysisWorkspace& workspace) {
  const PassLoopResult loop = response_time_analysis(input, workspace, 0, false);
  return export_analysis(input, workspace, loop);
}

AnalysisResult response_time_analysis(const AnalysisInput& input) {
  if (input.app == nullptr || input.platform == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  AnalysisWorkspace workspace(*input.app, *input.platform);
  return response_time_analysis(input, workspace);
}

}  // namespace mcs::core

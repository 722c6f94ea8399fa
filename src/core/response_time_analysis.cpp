#include "mcs/core/response_time_analysis.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
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

/// All mutable per-activity state of the fixed-point iteration (owned by
/// the AnalysisWorkspace so repeated runs reuse the allocations).  Every
/// field is monotonically non-decreasing across iterations, which (with
/// the divergence cap) guarantees termination.
using State = AnalysisWorkspace::State;

using PassSnapshot = AnalysisWorkspace::PassSnapshot;
using RtaTrajectory = AnalysisWorkspace::RtaTrajectory;

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
  const std::vector<std::vector<ProcessId>>& et_procs_by_node;  ///< dense by node index
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

  [[nodiscard]] Time period_of(MessageId m) const { return app.period_of(m); }
  [[nodiscard]] Time period_of(ProcessId p) const { return app.period_of(p); }
};

/// Snapshot-capture copy: per-vector compare-then-copy.  Late passes of a
/// run change only a handful of slots, so most vectors bit-match the
/// destination's previous contents (the same snapshot slot, refreshed
/// every run over the same topology) — eliding those stores roughly
/// halves the capture's memory traffic.  Sizes always match after the
/// first run; the plain copy covers the cold path.
void capture_state(State& dst, const State& src) {
  const auto cp = [](auto& d, const auto& s) {
    if (d.size() == s.size() &&
        std::memcmp(d.data(), s.data(), s.size() * sizeof(s[0])) == 0) {
      return;
    }
    d = s;
  };
  cp(dst.o_p, src.o_p);
  cp(dst.e_p, src.e_p);
  cp(dst.j_p, src.j_p);
  cp(dst.w_p, src.w_p);
  cp(dst.r_p, src.r_p);
  cp(dst.o_m, src.o_m);
  cp(dst.e_m, src.e_m);
  cp(dst.j_m, src.j_m);
  cp(dst.w_m, src.w_m);
  cp(dst.r_m, src.r_m);
  cp(dst.d_m, src.d_m);
  cp(dst.ttp_wait, src.ttp_wait);
  cp(dst.i_m, src.i_m);
}

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
/// predicate above — used by the packed paths of passes that scan message
/// (sub)pools quadratically.
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
/// quantities derive from their inputs.
///
/// Per-graph skip: the model forbids cross-graph messages and precedence
/// arcs, so a graph's sweep reads only its own members plus per-run
/// schedule constants.  A sweep that fired no raise and attempted no
/// over-cap value is therefore a guaranteed no-op on the next pass
/// (plain assigns write schedule constants and are consumed downstream
/// within the same sweep), UNLESS passes 2-4 changed one of the graph's
/// members in between — those paths re-arm the graph's activity byte.
void propagate(Ctx& ctx, State& s) {
  const Application& app = ctx.app;
  // The Reference kernel does not re-arm graphs, so it always sweeps.
  const bool allow_skip = ctx.opt.kernel != AnalysisKernel::Reference;
  std::uint8_t* active = ctx.ws.p1_active().data();
  for (std::size_t gi = 0; gi < ctx.topo.size(); ++gi) {
    if (allow_skip && active[gi] == 0) {
      ++ctx.ws.delta_stats().p1_graph_skips;
      continue;
    }
    const bool outer_changed = ctx.changed;
    const int div_before = ctx.diverged;
    ctx.changed = false;
    const auto& order = ctx.topo[gi];
    for (const ProcessId pid : order) {
      const Process& p = app.process(pid);
      const bool tt = ctx.platform.is_tt(p.node);

      if (tt) {
        // Pinned by the static schedule; deterministic start.
        const Time start = ctx.cfg.process_offset(pid);
        raise(ctx, s.o_p[pid.index()], start);
        raise(ctx, s.e_p[pid.index()], start);
        s.j_p[pid.index()] = 0;
        s.w_p[pid.index()] = 0;
        raise(ctx, s.r_p[pid.index()], p.wcet);
      } else {
        // Earliest release = all inputs present (earliest); jitter spans to
        // the worst-case arrival of the latest input.
        Time release = 0;      // earliest release (accounting offset O)
        Time latest = 0;       // latest arrival over all inputs
        for (const MessageId mid : p.in_messages) {
          const MessageRoute route = ctx.route[mid.index()];
          Time arc_release = 0;
          switch (route) {
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
        raise(ctx, s.o_p[pid.index()], release);
        raise(ctx, s.e_p[pid.index()], release);
        raise(ctx, s.j_p[pid.index()],
              std::max<Time>(0, latest - s.o_p[pid.index()]));
        // s.w_p is the full busy window (>= wcet once the recurrence ran).
        raise(ctx, s.r_p[pid.index()],
              s.j_p[pid.index()] + std::max(s.w_p[pid.index()], p.wcet));
      }

      // Outgoing messages of this process.
      for (const MessageId mid : p.out_messages) {
        const std::size_t mi = mid.index();
        switch (ctx.route[mi]) {
          case MessageRoute::Local: {
            raise(ctx, s.o_m[mi], s.o_p[pid.index()]);
            raise(ctx, s.e_m[mi], s.o_p[pid.index()] + p.wcet);
            s.j_m[mi] = 0;
            s.w_m[mi] = 0;
            raise(ctx, s.r_m[mi], s.r_p[pid.index()]);
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
            if (ctx.route[mi] == MessageRoute::TtToTt) {
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
            raise(ctx, s.o_m[mi], s.o_p[pid.index()]);
            raise(ctx, s.e_m[mi], s.o_p[pid.index()] + p.wcet);
            raise(ctx, s.j_m[mi], s.r_p[pid.index()]);
            if (ctx.route[mi] == MessageRoute::EtToEt) {
              raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
              raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
            }
            // EtToTt: r/d are finalized by the OutTTP drain pass.
            break;
          }
        }
      }
    }
    // Quiescent iff nothing moved AND nothing re-attempted an over-cap
    // raise (the divergence count must keep growing while a member sits
    // at the cap, so such graphs keep sweeping).
    active[gi] = (ctx.changed || ctx.diverged != div_before) ? std::uint8_t{1}
                                                            : std::uint8_t{0};
    ctx.changed = ctx.changed || outer_changed;
  }
}

/// ---- Pass 2: fixed-priority preemptive interference on each ETC node --
///
/// s.w_p holds the FULL level-i busy window including the process's own
/// WCET (preemptions landing while the process executes delay it too);
/// the paper's "interference" I_i = w - C_i is recovered at export time.
///
/// Both kernels take an optional recompute `mask` over the pool (nullptr
/// = recompute all).  Masked-off members replay the base snapshot's
/// post-pass values instead of iterating their recurrence; replays stay
/// interleaved in pool order so a recomputing member reads exactly the
/// mix of updated/not-yet-updated neighbor values a cold run would see
/// (Gauss-Seidel order is part of the fixed point's identity).

/// Replays one clean pool member from the base snapshot: raising to the
/// stored values reproduces `changed` exactly (the stored value IS what
/// the cold pass would compute), and the stored per-process divergence
/// increment reproduces the diverged accounting.
void replay_pass2_member(Ctx& ctx, State& s, std::size_t pi,
                         const PassSnapshot& snap, PassSnapshot* cap) {
  const Time w0 = s.w_p[pi];
  const Time r0 = s.r_p[pi];
  raise(ctx, s.w_p[pi], snap.end.w_p[pi]);
  raise(ctx, s.r_p[pi], snap.end.r_p[pi]);
  if (s.w_p[pi] != w0 || s.r_p[pi] != r0) {
    ctx.ws.p1_active()[ctx.ws.proc_graph()[pi]] = 1;
  }
  ctx.diverged += snap.p2_div[pi];
  if (cap != nullptr) cap->p2_div[pi] = snap.p2_div[pi];
}

void pass2_pool_reference(Ctx& ctx, State& s,
                          const AnalysisWorkspace::ProcPool& pool,
                          const std::uint8_t* mask, const PassSnapshot* snap,
                          PassSnapshot* cap) {
  const Application& app = ctx.app;
  const std::size_t n = pool.pids.size();
  for (std::size_t x = 0; x < n; ++x) {
    const ProcessId pid = pool.pids[x];
    const std::size_t pi = pid.index();
    if (mask != nullptr && mask[x] == 0) {
      replay_pass2_member(ctx, s, pi, *snap, cap);
      continue;
    }
    const int div_before = ctx.diverged;
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
    if (cap != nullptr) {
      cap->p2_div[pi] = static_cast<std::int32_t>(ctx.diverged - div_before);
    }
  }
}

/// Refreshes one pool's cached candidate lists.  The static
/// candidate relation of member x — "jj != x and prio(jj) < prio(x)",
/// annotated with the baked pair class — depends only on the priority
/// vector, so the lists survive every evaluation that leaves this pool's
/// priorities untouched.  On a change, only members whose relative order
/// against a changed member flipped are rebuilt (O(n * changed) instead
/// of O(n^2)).  Pruned pairs are STORED with their class byte (the
/// offset_pruning=false path must still see them); window-class entries
/// keep their per-pass state checks in the kernel.  `rebuild` emits
/// member x's list in ascending index order — the exact scan order of the
/// scalar kernels, so candidate order (and thus every sum) is identical.
template <typename Rebuild>
void refresh_candidates(Ctx& ctx, AnalysisWorkspace::CandidateCache& cc,
                        const Priority* prio, std::size_t n,
                        const Rebuild& rebuild) {
  DeltaStats& stats = ctx.ws.delta_stats();
  std::size_t changed[16];
  std::size_t num_changed = 0;
  bool full = !cc.valid;
  if (!full) {
    for (std::size_t x = 0; x < n; ++x) {
      if (cc.prio[x] != prio[x]) {
        if (num_changed == 16) {
          full = true;
          break;
        }
        changed[num_changed++] = x;
      }
    }
  }
  if (!full && num_changed == 0) {
    ++stats.cand_cache_hits;
    return;
  }
  ++stats.cand_cache_rebuilds;
  for (std::size_t x = 0; x < n; ++x) {
    bool stale = full || cc.prio[x] != prio[x];
    for (std::size_t c = 0; c < num_changed && !stale; ++c) {
      const std::size_t j = changed[c];
      // Relation flip: j moved across x in the priority order.
      stale = (cc.prio[j] < cc.prio[x]) != (prio[j] < prio[x]);
    }
    if (stale) rebuild(x);
  }
  std::copy(prio, prio + n, cc.prio.begin());
  cc.valid = true;
}

/// An intra-run skip must reproduce the divergence count of the recompute
/// it elides, so a member only skips when that recompute would clamp
/// nothing: its recurrence starts below the cap (so a fixed point is
/// confirmed, not clamped) and its response raise stays within the cap.
/// Pass 2 raises r to J + w.
[[nodiscard]] bool proc_skip_clamp_free(const Ctx& ctx, Time j, Time w) {
  return w != ctx.cap && j + w <= ctx.cap;
}

/// CAN pass: r is raised to J + w + C and, except for ET->TT messages
/// (whose d the OutTTP drain owns), d to O + r.  At a confirmed fixed
/// point r already covers J + w + C, so O + r is the d raise target.
[[nodiscard]] bool can_skip_clamp_free(const Ctx& ctx, Time o, Time j, Time w,
                                       Time r, Time tx, bool et_to_tt) {
  return w != ctx.cap && j + w + tx <= ctx.cap && (et_to_tt || o + r <= ctx.cap);
}

/// Appends interferer j to member x's compact candidate arrays.  The
/// carry-in term of interfering_activations never reads the iterated w,
/// so it is summed once into `carry`; the rest of the term is stored as
/// the w-independent addend a = J_x + J_j - phase_j, the period and the
/// cost.
void push_candidate(AnalysisWorkspace::PackedScratch& ps, std::size_t& m,
                    Time& carry, Time j_x, Time o_x, Time o_j, Time j_j,
                    Time span_j, Time t_j, Time c_j) {
  const Time phase = relative_phase(o_j, o_x, t_j);
  const Time distance = (phase == 0) ? t_j : t_j - phase;
  if (span_j + j_x > distance) {
    carry += util::ceil_div(span_j + j_x - distance, t_j) * c_j;
  }
  ps.cand_a[m] = j_x + j_j - phase;
  ps.cand_period[m] = t_j;
  ps.cand_cost[m] = c_j;
  ++m;
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
      const Time x = w + a[i];
      if (x >= 0) next += (x / period[i] + 1) * cost[i];
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

/// Packed pass-2 kernel: pool state gathered into contiguous scratch
/// arrays, the pruning predicates' static parts resolved to one pair-class
/// byte, and the window anchors of the CURRENT member hoisted out of the
/// recurrence (its own o/e/j/w/r only change after its recurrence
/// finishes).  The candidate scan starts from the cached
/// priority-compacted list, members at a confirmed intra-run fixed point
/// are skipped, and the recurrence is ceiling_sum_fixed_point over the
/// surviving candidates.  Splitting off the carry-in only regroups an
/// exact integer sum, so the result is bit-identical to the Reference
/// kernel (enforced by soa_layout_test).
void pass2_pool_packed(Ctx& ctx, State& s, const AnalysisWorkspace::ProcPool& pool,
                       std::size_t pool_index, const std::uint8_t* mask,
                       const PassSnapshot* snap, PassSnapshot* cap) {
  const std::size_t n = pool.pids.size();
  constexpr std::uint8_t kOutPrev = 1, kOutCur = 2;
  // Whole-pool fast path: when every member's pass-1 inputs are unchanged
  // since the previous pass of this run, no member's outputs changed
  // during that pass (kOutPrev clear pool-wide), and no member sits at
  // the divergence cap, then every member takes the per-member skip below
  // — all read sets live inside the pool — so the scratch fill, cache
  // refresh, and writeback are no-ops and the whole body can be elided.
  // Flags need no rolling: all-quiet implies they are already zero.
  // Priorities cannot have changed mid-run (they are per-candidate
  // constants), so the candidate cache is untouched and still valid.
  if (ctx.ws.intra_pool_valid(pool_index) != 0) {
    const std::uint8_t* intra = ctx.ws.intra_flags().data();
    const Time* ipo = ctx.ws.intra_o().data();
    const Time* ipe = ctx.ws.intra_e().data();
    const Time* ipj = ctx.ws.intra_j().data();
    const Time* ipr = ctx.ws.intra_r().data();
    bool all_quiet = true;
    for (std::size_t x = 0; x < n && all_quiet; ++x) {
      const std::size_t pi = pool.pids[x].index();
      all_quiet = s.o_p[pi] == ipo[pi] && s.e_p[pi] == ipe[pi] &&
                  s.j_p[pi] == ipj[pi] && s.r_p[pi] == ipr[pi] &&
                  intra[pi] == 0 &&
                  proc_skip_clamp_free(ctx, s.j_p[pi], s.w_p[pi]);
    }
    if (all_quiet) {
      ctx.ws.delta_stats().intra_skips += n;
      return;
    }
  }
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
  refresh_candidates(ctx, cc, ps.prio.data(), n, [&](std::size_t x) {
    const std::uint8_t* pair = pool.pair.data() + x * n;
    std::uint32_t* out = cc.list.data() + x * n;
    std::uint8_t* ocls = cc.cls.data() + x * n;
    std::uint32_t len = 0;
    for (std::size_t jj = 0; jj < n; ++jj) {
      if (jj == x) continue;
      if (!(ps.prio[jj] < ps.prio[x])) continue;
      out[len] = static_cast<std::uint32_t>(jj);
      ocls[len] = pair[jj];
      ++len;
    }
    cc.len[x] = len;
  });
  // Intra-run fixed-point skip: a member whose own pass-1 inputs {o,e,j}
  // are unchanged since the previous pass of THIS run, whose outputs did
  // not change during the previous pass (the window-prune predicate reads
  // the member's own w), and whose whole candidate read set is likewise
  // quiescent, is already at its fixed point — recomputing would evaluate
  // the ceiling-sum once with identical inputs, observe next <= w, and
  // keep w with zero new divergences (proc_skip_clamp_free, checked).
  // `vis[x]` = inputs changed this pass OR outputs changed last pass;
  // kCur marks outputs changed DURING this pass, set before any later
  // pool-order member consults it, mirroring the Gauss-Seidel order of a
  // full recompute.
  std::uint8_t* intra = ctx.ws.intra_flags().data();
  Time* ipo = ctx.ws.intra_o().data();
  Time* ipe = ctx.ws.intra_e().data();
  Time* ipj = ctx.ws.intra_j().data();
  Time* ipr = ctx.ws.intra_r().data();
  std::uint8_t& pool_valid = ctx.ws.intra_pool_valid(pool_index);
  const bool intra_ok = pool_valid != 0;
  std::vector<std::uint8_t>& vis = ps.vis;
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    // r is both raised by pass 1 (jitter propagation) and read by the
    // window-prune predicate of every reader, so it counts as an input.
    const bool in_changed = !intra_ok || ps.o[x] != ipo[pi] ||
                            ps.e[x] != ipe[pi] || ps.j[x] != ipj[pi] ||
                            ps.r[x] != ipr[pi];
    vis[x] = (in_changed || (intra[pi] & kOutPrev) != 0) ? 1 : 0;
  }
  // A member's candidate list is exactly the higher-priority pool members
  // (the class filter only annotates entries), so "some candidate is
  // dirty" collapses to one compare against the minimum priority seen
  // among dirty members — pre-pass dirty (vis) plus, Gauss-Seidel style,
  // members whose outputs changed earlier in THIS sweep (kOutCur).
  Priority min_changed = std::numeric_limits<Priority>::max();
  for (std::size_t x = 0; x < n; ++x) {
    if (vis[x] != 0) min_changed = std::min(min_changed, ps.prio[x]);
  }
  DeltaStats& dstats = ctx.ws.delta_stats();
  const bool prune = ctx.opt.offset_pruning;
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    if (mask != nullptr && mask[x] == 0) {
      raise(ctx, ps.w[x], snap->end.w_p[pi]);
      raise(ctx, ps.r[x], snap->end.r_p[pi]);
      if (ps.w[x] != s.w_p[pi] || ps.r[x] != s.r_p[pi]) {
        intra[pi] |= kOutCur;
        min_changed = std::min(min_changed, ps.prio[x]);
      }
      ctx.diverged += snap->p2_div[pi];
      if (cap != nullptr) cap->p2_div[pi] = snap->p2_div[pi];
      continue;
    }
    if (intra_ok && vis[x] == 0 && proc_skip_clamp_free(ctx, ps.j[x], ps.w[x]) &&
        min_changed >= ps.prio[x]) {
      // No dirty candidate (all candidates have strictly lower priority
      // values), own inputs and outputs quiet: cap->p2_div[pi] stays 0
      // (pre-assigned), matching the zero divergences a confirming
      // recompute would record.
      ++dstats.intra_skips;
      continue;
    }
    const int div_before = ctx.diverged;
    const Time c_i = pool.wcet[x];
    const Time j_x = ps.j[x];
    const Time latest_x = ps.o[x] + j_x + std::max(ps.w[x], c_i);
    const std::uint32_t* cand = cc.list.data() + x * n;
    const std::uint8_t* ccls = cc.cls.data() + x * n;
    const std::uint32_t clen = cc.len[x];
    std::size_t m = 0;
    Time carry_total = 0;
    for (std::uint32_t t = 0; t < clen; ++t) {
      const std::size_t jj = cand[t];
      if (prune) {
        const std::uint8_t cls = ccls[t];
        if (cls == AnalysisWorkspace::kPairPruned) continue;
        if (cls == AnalysisWorkspace::kPairWindow) {
          if (ps.o[jj] + ps.r[jj] <= ps.e[x]) continue;
          if (ps.e[jj] >= latest_x) continue;
        }
      }
      push_candidate(ps, m, carry_total, j_x, ps.o[x], ps.o[jj], ps.j[jj],
                     ps.j[jj] + std::max(ps.w[jj], pool.wcet[jj]),
                     pool.period[jj], pool.wcet[jj]);
    }
    const Time w = ceiling_sum_fixed_point(ctx, ps, m, c_i + carry_total,
                                           std::max(ps.w[x], c_i));
    raise(ctx, ps.w[x], w);
    raise(ctx, ps.r[x], j_x + ps.w[x]);
    if (ps.w[x] != s.w_p[pi] || ps.r[x] != s.r_p[pi]) {
      intra[pi] |= kOutCur;
      min_changed = std::min(min_changed, ps.prio[x]);
    }
    if (cap != nullptr) {
      cap->p2_div[pi] = static_cast<std::int32_t>(ctx.diverged - div_before);
    }
  }
  std::uint8_t* p1_active = ctx.ws.p1_active().data();
  const std::uint32_t* proc_graph = ctx.ws.proc_graph().data();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    s.w_p[pi] = ps.w[x];
    s.r_p[pi] = ps.r[x];
    // Roll the intra-run bookkeeping: this pass's inputs become the
    // baseline, this pass's output-change bit becomes next pass's.
    ipo[pi] = ps.o[x];
    ipe[pi] = ps.e[x];
    ipj[pi] = ps.j[x];
    ipr[pi] = ps.r[x];
    if ((intra[pi] & kOutCur) != 0) {
      p1_active[proc_graph[pi]] = 1;  // re-arm pass 1 for this graph
      intra[pi] = kOutPrev;
    } else {
      intra[pi] = 0;
    }
  }
  pool_valid = 1;
}

/// Pass-2 driver: per pool, computes the recompute mask from the base
/// snapshot (nullptr snap = cold: recompute everything) and dispatches to
/// the selected kernel.
///
/// Dirtiness inputs of one member: its post-pass-1 {o,e,j} (compared to
/// the base's end-of-pass values — pass 2 does not change them), its
/// post-pass-1 r (compared to the base's post-pass-1 snapshot), its
/// incoming w (the PREVIOUS pass's end value, zero on pass 0), and its
/// priority.  A clean member can still read a dirty one through the
/// higher-priority interference sum, so the mask recomputes the whole
/// priority band below the highest-priority dirty member.  That band
/// rule is sound precisely because pass 2 has no blocking term:
/// members never read lower-priority state.
void pass2(Ctx& ctx, State& s, const RtaDelta* delta, const PassSnapshot* snap,
           const PassSnapshot* prev, PassSnapshot* cap) {
  const std::vector<AnalysisWorkspace::ProcPool>& pools = ctx.ws.proc_pools();
  for (std::size_t pool_index = 0; pool_index < pools.size(); ++pool_index) {
    const AnalysisWorkspace::ProcPool& pool = pools[pool_index];
    const std::size_t n = pool.pids.size();
    const std::uint8_t* mask = nullptr;
    bool any_dirty = true;
    if (snap != nullptr) {
      std::vector<std::uint8_t>& buf = ctx.ws.packed_scratch().mask;
      any_dirty = false;
      Priority p_star = 0;
      for (std::size_t x = 0; x < n; ++x) {
        const std::size_t pi = pool.pids[x].index();
        const bool dirty =
            s.o_p[pi] != snap->end.o_p[pi] || s.e_p[pi] != snap->end.e_p[pi] ||
            s.j_p[pi] != snap->end.j_p[pi] || s.r_p[pi] != snap->r_p_mid[pi] ||
            s.w_p[pi] != (prev != nullptr ? prev->end.w_p[pi] : 0) ||
            (delta != nullptr && delta->proc_prio_changed != nullptr &&
             (*delta->proc_prio_changed)[pi] != 0);
        buf[x] = dirty ? 1 : 0;
        if (dirty) {
          // Band floor: a priority-CHANGED member affects everything below
          // its old position as well as its new one (it stopped or started
          // interfering with the span between them), so take the higher of
          // the two.  State-dirty members have old == new.
          Priority p = ctx.cfg.process_priority(pool.pids[x]);
          if (delta != nullptr && delta->base_process_priorities != nullptr) {
            p = std::min(p, (*delta->base_process_priorities)[pi]);
          }
          p_star = any_dirty ? std::min(p_star, p) : p;
          any_dirty = true;
        }
      }
      if (any_dirty) {
        for (std::size_t x = 0; x < n; ++x) {
          if (buf[x] == 0 && ctx.cfg.process_priority(pool.pids[x]) > p_star) {
            buf[x] = 1;
          }
        }
      }
      mask = buf.data();
      DeltaStats& stats = ctx.ws.delta_stats();
      if (any_dirty) {
        ++stats.components_recomputed;
      } else {
        ++stats.components_skipped;
      }
    }
    if (!any_dirty) {
      // Whole pool clean: replay without gathering.  The intra-run skip
      // bookkeeping was not maintained, so it cannot be trusted next pass.
      ctx.ws.intra_pool_valid(pool_index) = 0;
      for (std::size_t x = 0; x < n; ++x) {
        replay_pass2_member(ctx, s, pool.pids[x].index(), *snap, cap);
      }
      continue;
    }
    if (ctx.opt.kernel != AnalysisKernel::Reference) {
      pass2_pool_packed(ctx, s, pool, pool_index, mask, snap, cap);
    } else {
      pass2_pool_reference(ctx, s, pool, mask, snap, cap);
    }
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
/// window anchors, intra-run skips, the same ceiling-sum) with cached
/// candidate AND blocking lists, both keyed on the message priority
/// vector and resolved through the precomputed pair-class matrices.
void can_recurrences_packed(Ctx& ctx, State& s) {
  const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
  const std::size_t n = cp.mids.size();
  constexpr std::uint8_t kOutPrev = 1, kOutCur = 2;
  // Whole-bus fast path, mirroring pass2_pool_packed: all read sets (hp
  // interference + lp blocking lists) live inside the bus pool, so a
  // fully quiet pool skips every member and the body can be elided.
  if (ctx.ws.intra_can_valid() != 0) {
    const std::uint8_t* intra = ctx.ws.intra_m_flags().data();
    const Time* imo = ctx.ws.intra_m_o().data();
    const Time* ime = ctx.ws.intra_m_e().data();
    const Time* imj = ctx.ws.intra_m_j().data();
    const Time* imw = ctx.ws.intra_m_w().data();
    const Time* imd = ctx.ws.intra_m_d().data();
    const Time* imr = ctx.ws.intra_m_r().data();
    bool all_quiet = true;
    for (std::size_t x = 0; x < n && all_quiet; ++x) {
      const std::size_t mi = cp.mids[x].index();
      all_quiet = s.o_m[mi] == imo[mi] && s.e_m[mi] == ime[mi] &&
                  s.j_m[mi] == imj[mi] && s.w_m[mi] == imw[mi] &&
                  s.d_m[mi] == imd[mi] && s.r_m[mi] == imr[mi] &&
                  intra[mi] == 0 &&
                  can_skip_clamp_free(ctx, s.o_m[mi], s.j_m[mi], s.w_m[mi],
                                      s.r_m[mi], cp.tx[x], cp.is_et_to_tt[x] != 0);
    }
    if (all_quiet) {
      ctx.ws.delta_stats().intra_skips += n;
      return;
    }
  }
  AnalysisWorkspace::PackedScratch& ps = ctx.ws.packed_scratch();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    ps.o[x] = s.o_m[mi];
    ps.e[x] = s.e_m[mi];
    ps.j[x] = s.j_m[mi];
    ps.w[x] = s.w_m[mi];
    ps.d[x] = s.d_m[mi];
    ps.prio[x] = ctx.cfg.message_priority(cp.mids[x]);
  }
  AnalysisWorkspace::CandidateCache& cc = ctx.ws.can_cand_cache();
  refresh_candidates(ctx, cc, ps.prio.data(), n, [&](std::size_t x) {
    const std::uint8_t* interfere = cp.interfere.data() + x * n;
    const std::uint8_t* block_cls = cp.block.data() + x * n;
    std::uint32_t* out = cc.list.data() + x * n;
    std::uint8_t* ocls = cc.cls.data() + x * n;
    std::uint32_t* blk = cc.blk_list.data() + x * n;
    std::uint8_t* bcls = cc.blk_cls.data() + x * n;
    std::uint32_t len = 0;
    std::uint32_t blen = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == x) continue;
      if (ps.prio[k] < ps.prio[x]) {
        out[len] = static_cast<std::uint32_t>(k);
        ocls[len] = interfere[k];
        ++len;
      } else {
        blk[blen] = static_cast<std::uint32_t>(k);
        bcls[blen] = block_cls[k];
        ++blen;
      }
    }
    cc.len[x] = len;
    cc.blk_len[x] = blen;
  });
  // Intra-run fixed-point skip, mirroring pass 2: a message whose own
  // entry values {o,e,j,w,d,r} are unchanged since the previous pass of
  // this run and whose whole read set — hp interference candidates
  // ({o,e,j,w,d}) AND lp blocking candidates ({e,d}) — is quiescent is
  // already at its fixed point; recomputing would confirm next <= w with
  // zero divergences (can_skip_clamp_free) and every raise would be a
  // no-op.  r counts as an input because pass 1 raises it (sender r_p
  // propagation) and the member's own d raise reads it.
  std::uint8_t* intra = ctx.ws.intra_m_flags().data();
  Time* imo = ctx.ws.intra_m_o().data();
  Time* ime = ctx.ws.intra_m_e().data();
  Time* imj = ctx.ws.intra_m_j().data();
  Time* imw = ctx.ws.intra_m_w().data();
  Time* imd = ctx.ws.intra_m_d().data();
  Time* imr = ctx.ws.intra_m_r().data();
  std::uint8_t& can_valid = ctx.ws.intra_can_valid();
  const bool intra_ok = can_valid != 0;
  std::vector<std::uint8_t>& vis = ps.vis;
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    const bool in_changed = !intra_ok || ps.o[x] != imo[mi] ||
                            ps.e[x] != ime[mi] || ps.j[x] != imj[mi] ||
                            ps.w[x] != imw[mi] || ps.d[x] != imd[mi] ||
                            s.r_m[mi] != imr[mi];
    vis[x] = (in_changed || (intra[mi] & kOutPrev) != 0) ? 1 : 0;
  }
  // The interference and blocking lists PARTITION the other bus members
  // (every k != x lands in one of them; the class bytes only annotate),
  // so "some candidate of x is dirty" collapses to "some member other
  // than x is dirty".  One running count replaces both O(n) scans: vis
  // members are counted up front, and a member whose outputs first
  // change mid-sweep (kOutCur, Gauss-Seidel order) joins when it does —
  // only if it was not already vis-counted.
  std::size_t num_dirty = 0;
  for (std::size_t x = 0; x < n; ++x) num_dirty += vis[x];
  DeltaStats& dstats = ctx.ws.delta_stats();
  const bool prune = ctx.opt.offset_pruning;
  for (std::size_t x = 0; x < n; ++x) {
    if (intra_ok && vis[x] == 0 && num_dirty == 0 &&
        can_skip_clamp_free(ctx, ps.o[x], ps.j[x], ps.w[x],
                            s.r_m[cp.mids[x].index()], cp.tx[x],
                            cp.is_et_to_tt[x] != 0)) {
      ++dstats.intra_skips;
      continue;
    }
    const Time latest_x = ps.o[x] + ps.j[x] + ps.w[x] + cp.tx[x];
    const Time arrival_x = ps.o[x] + ps.j[x];
    const Time j_x = ps.j[x];
    const Time r_before = s.r_m[cp.mids[x].index()];
    Time blocking = 0;
    {
      const std::uint32_t* blk = cc.blk_list.data() + x * n;
      const std::uint8_t* bcls = cc.blk_cls.data() + x * n;
      const std::uint32_t blen = cc.blk_len[x];
      for (std::uint32_t t = 0; t < blen; ++t) {
        const std::size_t k = blk[t];
        if (prune) {
          const std::uint8_t cls = bcls[t];
          if (cls == AnalysisWorkspace::kPairPruned) continue;
          if (cls == AnalysisWorkspace::kPairWindow) {
            if (ps.e[k] >= arrival_x) continue;
            if (ps.d[k] <= ps.e[x]) continue;
          }
        }
        blocking = std::max(blocking, cp.tx[k]);
      }
    }
    const std::uint32_t* cand = cc.list.data() + x * n;
    const std::uint8_t* ccls = cc.cls.data() + x * n;
    const std::uint32_t clen = cc.len[x];
    std::size_t m = 0;
    Time carry_total = 0;
    for (std::uint32_t t = 0; t < clen; ++t) {
      const std::size_t jj = cand[t];
      if (prune) {
        const std::uint8_t cls = ccls[t];
        if (cls == AnalysisWorkspace::kPairPruned) continue;
        if (cls == AnalysisWorkspace::kPairWindow) {
          if (ps.d[jj] <= ps.e[x]) continue;
          if (ps.e[jj] >= latest_x) continue;
        }
      }
      push_candidate(ps, m, carry_total, j_x, ps.o[x], ps.o[jj], ps.j[jj],
                     ps.j[jj] + ps.w[jj] + cp.tx[jj], cp.period[jj], cp.tx[jj]);
    }
    const Time w =
        ceiling_sum_fixed_point(ctx, ps, m, blocking + carry_total, ps.w[x]);
    raise(ctx, ps.w[x], w);
    const std::size_t mi = cp.mids[x].index();
    raise(ctx, s.r_m[mi], ps.j[x] + ps.w[x] + cp.tx[x]);
    if (cp.is_et_to_tt[x] == 0) {
      raise(ctx, ps.d[x], ps.o[x] + s.r_m[mi]);
    }
    if (ps.w[x] != s.w_m[mi] || ps.d[x] != s.d_m[mi] ||
        s.r_m[mi] != r_before) {
      intra[mi] |= kOutCur;
      if (vis[x] == 0) ++num_dirty;  // not yet counted by the vis scan
    }
  }
  std::uint8_t* p1_active = ctx.ws.p1_active().data();
  const std::uint32_t* msg_graph = ctx.ws.msg_graph().data();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    s.w_m[mi] = ps.w[x];
    s.d_m[mi] = ps.d[x];
    imo[mi] = ps.o[x];
    ime[mi] = ps.e[x];
    imj[mi] = ps.j[x];
    imw[mi] = ps.w[x];
    imd[mi] = ps.d[x];
    imr[mi] = s.r_m[mi];
    if ((intra[mi] & kOutCur) != 0) {
      p1_active[msg_graph[mi]] = 1;  // re-arm pass 1 for this graph
      intra[mi] = kOutPrev;
    } else {
      intra[mi] = 0;
    }
  }
  can_valid = 1;
}

/// Pass-3 driver: the CAN bus is one component — the lp blocking term
/// couples every message to every other regardless of priority order, so
/// there is no per-member or per-band refinement here.
/// Dirtiness inputs:
/// any CAN message's post-pass-1 {o,e,j}, its post-pass-1 d (vs the base's
/// post-pass-1 snapshot), its incoming w (previous pass's end), or any
/// CAN priority change.
void pass3(Ctx& ctx, State& s, const RtaDelta* delta, const PassSnapshot* snap,
           const PassSnapshot* prev, PassSnapshot* cap) {
  const std::size_t n = ctx.can_messages.size();
  if (n == 0) {
    if (cap != nullptr) cap->can_div = 0;
    return;
  }
  bool dirty = snap == nullptr ||
               (delta != nullptr && delta->msg_prio_dirty);
  for (std::size_t x = 0; x < n && !dirty; ++x) {
    const std::size_t mi = ctx.can_messages[x].index();
    dirty = s.o_m[mi] != snap->end.o_m[mi] ||
            s.e_m[mi] != snap->end.e_m[mi] ||
            s.j_m[mi] != snap->end.j_m[mi] ||
            s.d_m[mi] != snap->d_m_mid[mi] ||
            s.w_m[mi] != (prev != nullptr ? prev->end.w_m[mi] : 0);
  }
  if (snap != nullptr) {
    DeltaStats& stats = ctx.ws.delta_stats();
    if (dirty) {
      ++stats.components_recomputed;
    } else {
      ++stats.components_skipped;
    }
  }
  if (!dirty) {
    // Replay bypasses the kernel's intra-run bookkeeping.
    ctx.ws.intra_can_valid() = 0;
    std::uint8_t* p1_active = ctx.ws.p1_active().data();
    const std::uint32_t* msg_graph = ctx.ws.msg_graph().data();
    for (std::size_t x = 0; x < n; ++x) {
      const std::size_t mi = ctx.can_messages[x].index();
      const Time w0 = s.w_m[mi];
      const Time r0 = s.r_m[mi];
      const Time d0 = s.d_m[mi];
      raise(ctx, s.w_m[mi], snap->end.w_m[mi]);
      // r is replayed from the post-pass-3 snapshot, NOT the end state:
      // an ET->TT message's end r includes the pass-4 drain raise.
      raise(ctx, s.r_m[mi], snap->r_m_mid[mi]);
      if (ctx.route[mi] != MessageRoute::EtToTt) {
        raise(ctx, s.d_m[mi], snap->end.d_m[mi]);
      }
      if (s.w_m[mi] != w0 || s.r_m[mi] != r0 || s.d_m[mi] != d0) {
        p1_active[msg_graph[mi]] = 1;  // re-arm pass 1 for this graph
      }
    }
    ctx.diverged += snap->can_div;
    if (cap != nullptr) cap->can_div = snap->can_div;
    return;
  }
  const int div_before = ctx.diverged;
  if (ctx.opt.kernel != AnalysisKernel::Reference) {
    can_recurrences_packed(ctx, s);
  } else {
    can_message_recurrences(ctx, s);
  }
  if (cap != nullptr) {
    cap->can_div = static_cast<std::int32_t>(ctx.diverged - div_before);
  }
}

/// ---- Pass 4: OutTTP FIFO drain through the gateway slot (§4.1.2) ------
void out_ttp_drain(Ctx& ctx, State& s) {
  if (ctx.et_to_tt.empty()) return;
  if (!ctx.has_sg_slot) {
    // No gateway slot: ET->TT traffic can never be delivered.
    for (const MessageId mid : ctx.et_to_tt) {
      if (s.d_m[mid.index()] < ctx.cap) ++ctx.diverged;
      raise(ctx, s.d_m[mid.index()], ctx.cap);
      raise(ctx, s.r_m[mid.index()], ctx.cap);
    }
    return;
  }
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
    // Every ET->TT message rides the CAN bus, so the precomputed interfere
    // classes apply; the packed kernel uses them, the reference kernel
    // keeps the scalar predicate as the independent baseline.
    const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
    const std::uint8_t* cls_row =
        ctx.opt.kernel != AnalysisKernel::Reference
            ? cp.interfere.data() + cp.index[mi] * cp.mids.size()
            : nullptr;
    const Time latest_m = s.o_m[mi] + m_arrival_spread;
    std::int64_t bytes_ahead = 0;
    for (const MessageId j : ctx.et_to_tt) {
      if (j == mid) continue;
      if (cls_row != nullptr
              ? !message_can_interfere_cls(ctx, s, cls_row[cp.index[j.index()]],
                                           j, s.e_m[mi], latest_m)
              : !message_can_interfere(ctx, s, j, mid)) {
        continue;
      }
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

/// Pass-4 driver: the OutTTP FIFO is one component (arrival order couples
/// all ET->TT messages).  Dirtiness inputs per member: post-pass-3
/// {o,e,j,w} (end values — pass 4 never changes them), post-pass-3 r, and
/// the incoming d/ttp_wait (previous pass's end).  The one input outside
/// the state is the drain calendar (gateway slot ownership, offset and
/// length, round length): `calendar_dirty` recomputes the drain when it
/// differs from the base's.  Message priorities do NOT matter here: the
/// FIFO count is priority-blind (message_can_interfere's state checks use
/// no priorities).
///
/// Pass 4 never re-arms the pass-1 graph skip: it only writes i/ttp_wait/
/// d/r of ET->TT messages, and none of those slots are pass-1 inputs (an
/// ET->TT destination is a TT process, whose pinned branch reads no
/// incoming-message state).
void pass4(Ctx& ctx, State& s, bool calendar_dirty, const PassSnapshot* snap,
           const PassSnapshot* prev, PassSnapshot* cap) {
  if (ctx.et_to_tt.empty()) {
    if (cap != nullptr) cap->ttp_div = 0;
    return;
  }
  bool dirty = snap == nullptr || calendar_dirty;
  for (std::size_t x = 0; x < ctx.et_to_tt.size() && !dirty; ++x) {
    const std::size_t mi = ctx.et_to_tt[x].index();
    dirty = s.o_m[mi] != snap->end.o_m[mi] || s.e_m[mi] != snap->end.e_m[mi] ||
            s.j_m[mi] != snap->end.j_m[mi] || s.w_m[mi] != snap->end.w_m[mi] ||
            s.r_m[mi] != snap->r_m_mid[mi] ||
            s.d_m[mi] != (prev != nullptr ? prev->end.d_m[mi] : 0) ||
            s.ttp_wait[mi] != (prev != nullptr ? prev->end.ttp_wait[mi] : 0);
  }
  if (snap != nullptr) {
    DeltaStats& stats = ctx.ws.delta_stats();
    if (dirty) {
      ++stats.components_recomputed;
    } else {
      ++stats.components_skipped;
    }
  }
  if (!dirty) {
    // Replay bypasses the drain's intra-run bookkeeping.
    ctx.ws.intra_ttp_state() = 0;
    for (const MessageId mid : ctx.et_to_tt) {
      const std::size_t mi = mid.index();
      // i_m / ttp_wait are direct-assigned by the drain; d / r are raised.
      s.i_m[mi] = snap->end.i_m[mi];
      s.ttp_wait[mi] = snap->end.ttp_wait[mi];
      raise(ctx, s.d_m[mi], snap->end.d_m[mi]);
      raise(ctx, s.r_m[mi], snap->end.r_m[mi]);
    }
    ctx.diverged += snap->ttp_div;
    if (cap != nullptr) cap->ttp_div = snap->ttp_div;
    return;
  }
  // Intra-run quiescence skip (Packed kernel only, like the pass-2/3 skips):
  // the drain reads and writes only the ET->TT members' own fields, so if
  // all eight are unchanged since the previous drain of this run and that
  // drain was change- and divergence-free, re-running it is a no-op.
  const int div_before = ctx.diverged;
  const bool track = ctx.opt.kernel != AnalysisKernel::Reference;
  AnalysisWorkspace& ws = ctx.ws;
  if (track && ws.intra_ttp_state() == 3) {
    bool quiet = true;
    for (const MessageId mid : ctx.et_to_tt) {
      const std::size_t mi = mid.index();
      if (s.o_m[mi] != ws.intra_t_o()[mi] || s.e_m[mi] != ws.intra_t_e()[mi] ||
          s.j_m[mi] != ws.intra_t_j()[mi] || s.w_m[mi] != ws.intra_t_w()[mi] ||
          s.r_m[mi] != ws.intra_t_r()[mi] || s.d_m[mi] != ws.intra_t_d()[mi] ||
          s.i_m[mi] != ws.intra_t_i()[mi] ||
          s.ttp_wait[mi] != ws.intra_t_wait()[mi]) {
        quiet = false;
        break;
      }
    }
    if (quiet) {
      // cap->ttp_div stays pre-zeroed: a confirming drain diverges nowhere.
      ws.delta_stats().intra_skips += ctx.et_to_tt.size();
      return;
    }
  }
  if (track) {
    for (const MessageId mid : ctx.et_to_tt) {
      const std::size_t mi = mid.index();
      ws.intra_t_o()[mi] = s.o_m[mi];
      ws.intra_t_e()[mi] = s.e_m[mi];
      ws.intra_t_j()[mi] = s.j_m[mi];
      ws.intra_t_w()[mi] = s.w_m[mi];
      ws.intra_t_r()[mi] = s.r_m[mi];
      ws.intra_t_d()[mi] = s.d_m[mi];
      ws.intra_t_i()[mi] = s.i_m[mi];
      ws.intra_t_wait()[mi] = s.ttp_wait[mi];
    }
  }
  out_ttp_drain(ctx, s);
  if (track) {
    bool quiet = ctx.diverged == div_before;
    for (const MessageId mid : ctx.et_to_tt) {
      if (!quiet) break;
      const std::size_t mi = mid.index();
      quiet = s.r_m[mi] == ws.intra_t_r()[mi] &&
              s.d_m[mi] == ws.intra_t_d()[mi] &&
              s.i_m[mi] == ws.intra_t_i()[mi] &&
              s.ttp_wait[mi] == ws.intra_t_wait()[mi];
    }
    if (!quiet) {
      for (const MessageId mid : ctx.et_to_tt) {
        const std::size_t mi = mid.index();
        ws.intra_t_r()[mi] = s.r_m[mi];
        ws.intra_t_d()[mi] = s.d_m[mi];
        ws.intra_t_i()[mi] = s.i_m[mi];
        ws.intra_t_wait()[mi] = s.ttp_wait[mi];
      }
    }
    ws.intra_ttp_state() = quiet ? 3 : 1;
  }
  if (cap != nullptr) {
    cap->ttp_div = static_cast<std::int32_t>(ctx.diverged - div_before);
  }
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

}  // namespace

AnalysisResult response_time_analysis(const AnalysisInput& input,
                                      AnalysisWorkspace& workspace,
                                      const RtaDelta* delta,
                                      AnalysisWorkspace::RtaTrajectory* capture) {
  if (input.app == nullptr || input.platform == nullptr || input.config == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  const Application& app = *input.app;
  const arch::Platform& platform = *input.platform;
  if (!workspace.matches(app, platform)) {
    throw std::invalid_argument(
        "response_time_analysis: workspace built for a different system");
  }

  // Fallback empty TTC schedule for pure-ET systems.
  const sched::TtcSchedule* ttc = input.ttc_schedule;
  if (ttc == nullptr) ttc = &workspace.empty_ttc_schedule();

  Ctx ctx{app,
          platform,
          *input.config,
          *ttc,
          input.options,
          workspace.reachability(),
          workspace,
          workspace.routes(),
          workspace.can_tx(),
          workspace.et_procs_by_node(),
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

  State& s = workspace.reset_state();
  workspace.reset_intra();

  const RtaTrajectory* base = (delta != nullptr) ? delta->base : nullptr;
  if (capture != nullptr) {
    capture->used = 0;
    capture->complete = false;
    capture->bounds_valid = false;
  }

  AnalysisResult result;
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
    // Base snapshot of the pass at the same depth (nullptr past the stored
    // tail — the pass then recomputes everything, which is still exact).
    const std::size_t k = static_cast<std::size_t>(passes_run);
    const PassSnapshot* snap =
        (base != nullptr && k < base->used) ? &base->passes[k] : nullptr;
    const PassSnapshot* prev =
        (snap != nullptr && k >= 1) ? &base->passes[k - 1] : nullptr;

    // Pass 1 is the conduit through which every cross-component effect
    // travels; it sweeps every graph whose activity byte is armed and
    // elides graphs proven quiescent (see propagate).
    propagate(ctx, s);

    PassSnapshot* cap = nullptr;
    if (capture != nullptr &&
        capture->used < AnalysisWorkspace::kMaxStoredPasses) {
      if (capture->passes.size() <= capture->used) capture->passes.emplace_back();
      cap = &capture->passes[capture->used++];
    }
    if (cap != nullptr) {
      cap->r_p_mid = s.r_p;
      cap->d_m_mid = s.d_m;
      cap->p2_div.assign(s.r_p.size(), 0);
      cap->can_div = 0;
      cap->ttp_div = 0;
    }

    pass2(ctx, s, delta, snap, prev, cap);
    pass3(ctx, s, delta, snap, prev, cap);
    if (cap != nullptr) cap->r_m_mid = s.r_m;
    pass4(ctx, s, delta != nullptr && delta->ttp_calendar_dirty, snap, prev, cap);
    if (cap != nullptr) capture_state(cap->end, s);

    ++passes_run;
    if (std::vector<AnalysisWorkspace::TraceRecord>* sink =
            workspace.trace_sink()) {
      sink->push_back({workspace.trace_iteration(), passes_run - 1, state_hash(s)});
    }
    if (!ctx.changed) break;
  }
  if (capture != nullptr) {
    capture->complete =
        (capture->used == static_cast<std::size_t>(passes_run));
  }
  result.converged =
      (iterations < ctx.opt.max_outer_iterations) && (ctx.diverged == 0);
  result.outer_iterations = iterations;
  result.diverged_activities = ctx.diverged;

  // Buffer bounds need the complete final state.  They read only the CAN
  // pool's {o,e,j,w,d}, the ET->TT i_m, and CAN priorities, so when all of
  // those match the base's final state the stored bounds replay directly
  // (the O(pool^2) pass is the dominant post-loop cost).
  bool bounds_replayed = false;
  if (base != nullptr && base->complete && base->bounds_valid &&
      base->used > 0 && !(delta != nullptr && delta->msg_prio_dirty)) {
    const State& fin = base->passes[base->used - 1].end;
    bool same = true;
    for (const MessageId mid : ctx.can_messages) {
      const std::size_t mi = mid.index();
      if (s.o_m[mi] != fin.o_m[mi] || s.e_m[mi] != fin.e_m[mi] ||
          s.j_m[mi] != fin.j_m[mi] || s.w_m[mi] != fin.w_m[mi] ||
          s.d_m[mi] != fin.d_m[mi]) {
        same = false;
        break;
      }
    }
    if (same) {
      for (const MessageId mid : ctx.et_to_tt) {
        if (s.i_m[mid.index()] != fin.i_m[mid.index()]) {
          same = false;
          break;
        }
      }
    }
    if (same) {
      result.buffers = base->bounds;
      bounds_replayed = true;
    }
  }
  if (!bounds_replayed) result.buffers = buffer_bounds(ctx, s);
  if (capture != nullptr) {
    capture->bounds = result.buffers;
    capture->bounds_valid = true;
  }

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
  return response_time_analysis(input, workspace, nullptr, nullptr);
}

AnalysisResult response_time_analysis(const AnalysisInput& input,
                                      const model::ReachabilityIndex& reach) {
  if (input.app == nullptr || input.platform == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  AnalysisWorkspace workspace(*input.app, *input.platform, reach);
  return response_time_analysis(input, workspace);
}

AnalysisResult response_time_analysis(const AnalysisInput& input) {
  if (input.app == nullptr || input.platform == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  AnalysisWorkspace workspace(*input.app, *input.platform);
  return response_time_analysis(input, workspace);
}

}  // namespace mcs::core

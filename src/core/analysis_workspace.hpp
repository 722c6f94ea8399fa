// AnalysisWorkspace — candidate-invariant precomputation and reusable
// buffers for the analysis hot path (see DESIGN.md §1 and §2).
//
// The optimizers (HOPA, OS, OR, SAS/SAR) call the MultiClusterScheduling
// fixed point thousands of times on ONE application/platform pair; only
// the synthesized configuration psi = <phi, beta, pi> varies between
// calls.  Everything the response-time analysis derives from the
// application and the platform alone is therefore hoisted here and built
// exactly once per search:
//
//   * message routes (classify_route) and per-message CAN frame times,
//   * the activity pools (CAN-borne, ET->TT, TT->ET, per-node OutNi),
//   * ET processes grouped by node, topological orders per graph,
//   * the precedence reachability closure,
//   * the gateway transfer WCET and the divergence cap,
//   * an empty TTC schedule for pure-ET analyses,
//   * structure-of-arrays pools for the quadratic recurrence passes
//     (WCETs/periods/frame times packed contiguously, plus precomputed
//     interference-pair classes so the inner loops never chase the
//     reachability index),
//   * trajectory storage for the incremental (delta) re-analysis.
//
// The critical-path priorities list scheduling orders TT processes by are
// computed on the first MultiClusterScheduling run and kept for the rest.
//
// The workspace additionally owns the fixed-point State buffers (13
// vectors over processes/messages) which are RESET, not reallocated, on
// every analysis call, and scratch vectors for the buffer-bound pass.
//
// Delta analysis (DESIGN.md §2): when `delta_mode()` is On, the
// MultiClusterScheduling overload taking a workspace records the exact
// per-pass trajectory of each run and, on the next run, recomputes only
// the components (ETC node pools, the CAN bus, the OutTTP drain) whose
// pass inputs differ from the recorded base — everything else replays the
// stored values.  The replay is a faithful memoization, not a warm
// start, so results are bit-identical to a cold run by construction.
// Mode Check runs delta AND cold and throws on any difference.
//
// Ownership contract (DESIGN.md §4): a workspace is SINGLE-THREADED by
// design — one search loop, one workspace, owned by exactly one thread
// of execution for its whole lifetime.  There is no internal locking,
// and even const-looking use mutates the reusable State buffers, so a
// workspace (or the MoveContext owning one) must never be shared across
// threads.  Concurrent searches each build their own; the campaign
// engine (src/exp/campaign.hpp) builds one per job on the worker thread
// that runs it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mcs/arch/ttp.hpp"
#include "mcs/core/analysis_types.hpp"
#include "mcs/model/process_graph.hpp"
#include "mcs/sched/list_scheduler.hpp"

namespace mcs::core {

/// Incremental-evaluation policy of the MultiClusterScheduling overload
/// that reuses a workspace.  Off = always cold (the seed behavior); On =
/// trajectory-replay delta with automatic fallback; Check = run delta and
/// cold, compare bitwise, throw std::logic_error on any mismatch.
enum class DeltaMode { Off, On, Check };

/// Resolves the mode from the environment: MCS_DELTA_CHECK=1 selects
/// Check, MCS_DELTA=0/off selects Off, otherwise On.
[[nodiscard]] DeltaMode delta_mode_from_env() noexcept;

/// Counters of the incremental-evaluation machinery (per workspace).
struct DeltaStats {
  std::uint64_t full_runs = 0;      ///< cold MCS runs (no base, or a fallback)
  std::uint64_t delta_runs = 0;     ///< trajectory-replay MCS runs
  std::uint64_t fallbacks = 0;      ///< cold runs over a valid base (options moved)
  std::uint64_t checked = 0;        ///< Check-mode comparisons performed
  std::uint64_t mismatches = 0;     ///< Check-mode divergences detected
  std::uint64_t schedule_memo_hits = 0;   ///< list_schedule calls skipped
  std::uint64_t elided_iterations = 0;    ///< provably-redundant MCS iterations
  std::uint64_t components_skipped = 0;   ///< pass components replayed from base
  std::uint64_t components_recomputed = 0;
  std::uint64_t cand_cache_hits = 0;      ///< candidate lists reused as-is
  std::uint64_t cand_cache_rebuilds = 0;  ///< kernel calls that (re)built lists
  std::uint64_t intra_skips = 0;          ///< members at a confirmed fixed point
  std::uint64_t p1_graph_skips = 0;       ///< pass-1 sweeps elided for quiescent graphs
};

class AnalysisWorkspace {
public:
  /// Builds all invariant structure, including an owned reachability index.
  AnalysisWorkspace(const model::Application& app, const arch::Platform& platform);

  /// Same, but reuses a caller-owned reachability index (must outlive the
  /// workspace).
  AnalysisWorkspace(const model::Application& app, const arch::Platform& platform,
                    const model::ReachabilityIndex& reachability);

  [[nodiscard]] const model::Application& app() const noexcept { return *app_; }
  [[nodiscard]] const arch::Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] const model::ReachabilityIndex& reachability() const noexcept {
    return *reach_;
  }

  /// True when this workspace was built for exactly these objects (the
  /// analysis entry points validate this before reusing buffers).
  [[nodiscard]] bool matches(const model::Application& app,
                             const arch::Platform& platform) const noexcept {
    return app_ == &app && platform_ == &platform;
  }

  // --- hoisted invariant structure ------------------------------------
  [[nodiscard]] const std::vector<MessageRoute>& routes() const noexcept {
    return routes_;
  }
  [[nodiscard]] MessageRoute route(util::MessageId m) const {
    return routes_[m.index()];
  }
  /// C_m on the CAN bus, 0 for messages that never touch CAN.
  [[nodiscard]] const std::vector<util::Time>& can_tx() const noexcept {
    return can_tx_;
  }
  [[nodiscard]] const std::vector<util::MessageId>& can_messages() const noexcept {
    return can_messages_;
  }
  [[nodiscard]] const std::vector<util::MessageId>& et_to_tt() const noexcept {
    return et_to_tt_;
  }
  [[nodiscard]] const std::vector<util::MessageId>& tt_to_et() const noexcept {
    return tt_to_et_;
  }
  /// ETC processes per node index (dense over all nodes).
  [[nodiscard]] const std::vector<std::vector<util::ProcessId>>& et_procs_by_node()
      const noexcept {
    return et_procs_by_node_;
  }
  /// ET-sourced CAN messages per sender node index (OutNi pools).
  [[nodiscard]] const std::vector<std::vector<util::MessageId>>& out_ni_by_node()
      const noexcept {
    return out_ni_by_node_;
  }
  /// Topological order of each graph's processes.
  [[nodiscard]] const std::vector<std::vector<util::ProcessId>>& topo_orders()
      const noexcept {
    return topo_;
  }
  [[nodiscard]] bool has_gateway() const noexcept { return has_gateway_; }
  [[nodiscard]] util::NodeId gateway() const noexcept { return gateway_; }
  /// r_T of the gateway transfer process.
  [[nodiscard]] util::Time r_transfer() const noexcept { return r_transfer_; }
  /// Monotone-iteration divergence cap (4 hyper-periods + max period).
  [[nodiscard]] util::Time divergence_cap() const noexcept { return cap_; }
  /// All-zero TTC schedule used when the caller passes none (pure ETC).
  [[nodiscard]] const sched::TtcSchedule& empty_ttc_schedule() const noexcept {
    return empty_ttc_;
  }
  /// sched::critical_path_priorities of the application, the order
  /// list_schedule places TT processes in.  Computed on first use.
  [[nodiscard]] const std::vector<util::Time>& critical_path();

  // --- structure-of-arrays recurrence pools ---------------------------
  /// Interference-pair classification, decided from statics alone (graph
  /// membership, reachability, periods, sender): the packed kernels
  /// branch on one byte instead of re-deriving the pruning predicates.
  /// Window still needs the per-pass state check; Always/Pruned are final.
  enum PairClass : std::uint8_t { kPairWindow = 0, kPairAlways = 1, kPairPruned = 2 };

  /// One ETC node's processes with their static quantities packed in pool
  /// order (the order the Gauss-Seidel recurrence visits them).
  struct ProcPool {
    util::NodeId node = util::NodeId::invalid();
    std::vector<util::ProcessId> pids;
    std::vector<util::Time> wcet;
    std::vector<util::Time> period;
    /// pair[i*n + j]: class of pool member j interfering with member i.
    std::vector<std::uint8_t> pair;
  };

  /// The CAN arbitration pool (all CAN-borne messages, pool order).
  struct CanPool {
    std::vector<util::MessageId> mids;
    std::vector<util::Time> tx;
    std::vector<util::Time> period;
    std::vector<std::uint8_t> is_et_to_tt;
    /// index[message.index()]: position in `mids`, or npos for non-CAN
    /// messages.  Lets the FIFO/buffer passes reuse the interfere classes
    /// for their (sub)pools instead of re-deriving graph reachability.
    std::vector<std::size_t> index;
    /// interfere[m*n + j]: class of j interfering with m (hp preemption).
    std::vector<std::uint8_t> interfere;
    /// block[m*n + k]: class of k blocking m (lp non-preemptive start).
    std::vector<std::uint8_t> block;
  };

  [[nodiscard]] const std::vector<ProcPool>& proc_pools() const noexcept {
    return proc_pools_;
  }
  [[nodiscard]] const CanPool& can_pool() const noexcept { return can_pool_; }

  /// Reusable gather buffers for the packed kernel (sized to the largest
  /// pool at build time; see DESIGN.md §2 "Analysis kernels").
  struct PackedScratch {
    std::vector<util::Time> o, e, j, w, r, d;
    std::vector<Priority> prio;
    std::vector<std::uint8_t> mask;  ///< pass-2 recompute mask (1 = recompute)
    /// Pool-local "visibly changed since the previous pass" flags of the
    /// intra-run fixed-point skip (inputs changed this pass, or outputs
    /// changed during the previous pass).
    std::vector<std::uint8_t> vis;
    /// Per-member compacted interference candidates.  The pruning
    /// predicates and each candidate's phase/span never read the member's
    /// iterated w (its own window anchors are hoisted), so the kernel
    /// resolves them ONCE per member and the w-recurrence reduces to a
    /// tight ceiling-sum over these parallel arrays: the w-independent
    /// addend a = J_x + J_j - phase_j, the period and the cost.
    std::vector<util::Time> cand_a, cand_period, cand_cost;

    /// Total heap bytes currently reserved by the scratch arrays; the
    /// memory-stability test asserts this stops growing after warmup.
    [[nodiscard]] std::size_t footprint_bytes() const noexcept {
      return (o.capacity() + e.capacity() + j.capacity() + w.capacity() +
              r.capacity() + d.capacity() + cand_a.capacity() +
              cand_period.capacity() + cand_cost.capacity()) *
                 sizeof(util::Time) +
             prio.capacity() * sizeof(Priority) + mask.capacity() +
             vis.capacity();
    }
  };
  [[nodiscard]] PackedScratch& packed_scratch() noexcept { return packed_scratch_; }

  // --- intra-run fixed-point skip bookkeeping (packed pass-2 kernel) ----
  // Per-process values {o,e,j,r} as last seen by pass 2 within the current
  // analysis run, plus a flags byte (bit0 = outputs changed during the
  // previous pass, bit1 = outputs changed during the current pass).  A
  // member whose own inputs and whole candidate read set are unchanged
  // since the previous pass is already at its fixed point: recomputing
  // would evaluate the ceiling-sum once, observe next <= w, and keep w —
  // so the kernel skips the gather entirely.  Valid per pool only after
  // the packed kernel has run a full bookkeeping pass in this analysis run.
  [[nodiscard]] std::vector<util::Time>& intra_o() noexcept { return intra_o_; }
  [[nodiscard]] std::vector<util::Time>& intra_e() noexcept { return intra_e_; }
  [[nodiscard]] std::vector<util::Time>& intra_j() noexcept { return intra_j_; }
  [[nodiscard]] std::vector<util::Time>& intra_r() noexcept { return intra_r_; }
  [[nodiscard]] std::vector<std::uint8_t>& intra_flags() noexcept {
    return intra_flags_;
  }
  [[nodiscard]] std::uint8_t& intra_pool_valid(std::size_t pool) noexcept {
    return intra_pool_valid_[pool];
  }
  // Same bookkeeping for the CAN pool (pass 3): per-message last-seen
  // values — w/d/r are legitimate entry inputs there (w seeds the
  // recurrence, d feeds the window predicates of every reader, r is
  // raised by pass 1 and feeds the member's own d raise).
  [[nodiscard]] std::vector<util::Time>& intra_m_o() noexcept { return intra_m_o_; }
  [[nodiscard]] std::vector<util::Time>& intra_m_e() noexcept { return intra_m_e_; }
  [[nodiscard]] std::vector<util::Time>& intra_m_j() noexcept { return intra_m_j_; }
  [[nodiscard]] std::vector<util::Time>& intra_m_w() noexcept { return intra_m_w_; }
  [[nodiscard]] std::vector<util::Time>& intra_m_d() noexcept { return intra_m_d_; }
  [[nodiscard]] std::vector<util::Time>& intra_m_r() noexcept { return intra_m_r_; }
  [[nodiscard]] std::vector<std::uint8_t>& intra_m_flags() noexcept {
    return intra_m_flags_;
  }
  [[nodiscard]] std::uint8_t& intra_can_valid() noexcept {
    return intra_can_valid_;
  }
  // Intra-run quiescence bookkeeping for the pass-4 FIFO drain: last-seen
  // values of every field the drain reads or writes.  The interference
  // predicate only examines OTHER ET->TT members, so the read set is
  // confined to the ET->TT member fields themselves — if none of them
  // moved since the previous drain of this run, and that drain changed
  // nothing and attempted no over-cap raise, re-running it is a no-op.
  [[nodiscard]] std::vector<util::Time>& intra_t_o() noexcept { return intra_t_o_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_e() noexcept { return intra_t_e_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_j() noexcept { return intra_t_j_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_w() noexcept { return intra_t_w_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_r() noexcept { return intra_t_r_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_d() noexcept { return intra_t_d_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_i() noexcept { return intra_t_i_; }
  [[nodiscard]] std::vector<util::Time>& intra_t_wait() noexcept {
    return intra_t_wait_;
  }
  /// bit0: the stored values are from this run; bit1: the last drain was
  /// change-free and divergence-free (both required to skip).
  [[nodiscard]] std::uint8_t& intra_ttp_state() noexcept {
    return intra_ttp_state_;
  }

  // Per-graph pass-1 activity bytes: propagate sweeps a graph only while
  // its byte is set.  The byte clears when a sweep fires no raise and no
  // divergence attempt (such a sweep is provably a no-op next pass: every
  // write is either an idempotent schedule-constant assign or a raise
  // whose target is a deterministic function of the sweep-order state,
  // and the model forbids cross-graph arcs), and re-arms whenever passes
  // 2-4 change any value of a member of the graph.
  [[nodiscard]] std::vector<std::uint8_t>& p1_active() noexcept {
    return p1_active_;
  }
  /// Graph index of each process / message (dense, built once).
  [[nodiscard]] const std::vector<std::uint32_t>& proc_graph() const noexcept {
    return proc_graph_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& msg_graph() const noexcept {
    return msg_graph_;
  }
  /// Invalidates all per-pool intra-run bookkeeping (start of every run).
  void reset_intra() noexcept {
    std::fill(intra_pool_valid_.begin(), intra_pool_valid_.end(),
              std::uint8_t{0});
    intra_can_valid_ = 0;
    intra_ttp_state_ = 0;
    std::fill(p1_active_.begin(), p1_active_.end(), std::uint8_t{1});
  }

  /// Cached priority-compacted candidate lists, reused across evaluations.
  /// The static candidate relation of a pool member depends only on the
  /// pool's priority vector (pair classes are baked at build time), so the
  /// lists stay valid until a priority inside the pool changes — and then
  /// only the members whose relative order against a changed member
  /// flipped need rebuilding.  `prio` is the
  /// fingerprint the kernels revalidate against on entry.
  struct CandidateCache {
    bool valid = false;
    std::vector<Priority> prio;       ///< priorities the lists were built under
    std::vector<std::uint32_t> list;  ///< stride-n: hp candidates of member x
    std::vector<std::uint8_t> cls;    ///< pair class of each stored candidate
    std::vector<std::uint32_t> len;   ///< candidate count per member
    /// CAN pool only: the non-higher-priority blocking candidates.
    std::vector<std::uint32_t> blk_list;
    std::vector<std::uint8_t> blk_cls;
    std::vector<std::uint32_t> blk_len;

    [[nodiscard]] std::size_t footprint_bytes() const noexcept {
      return (list.capacity() + blk_list.capacity() + len.capacity() +
              blk_len.capacity()) *
                 sizeof(std::uint32_t) +
             cls.capacity() + blk_cls.capacity() +
             prio.capacity() * sizeof(Priority);
    }
  };
  [[nodiscard]] CandidateCache& proc_cand_cache(std::size_t pool) noexcept {
    return proc_cand_cache_[pool];
  }
  [[nodiscard]] CandidateCache& can_cand_cache() noexcept {
    return can_cand_cache_;
  }

  /// Scratch + candidate-cache heap footprint (memory-stability tests).
  [[nodiscard]] std::size_t scratch_footprint_bytes() const noexcept {
    std::size_t total = packed_scratch_.footprint_bytes();
    for (const CandidateCache& c : proc_cand_cache_) total += c.footprint_bytes();
    return total + can_cand_cache_.footprint_bytes();
  }

  // --- reusable fixed-point state -------------------------------------
  /// All mutable per-activity state of one analysis run.  Owned by the
  /// workspace so repeated runs reuse the allocations.
  struct State {
    // Processes.
    std::vector<util::Time> o_p, e_p, j_p, w_p, r_p;
    // Messages.
    std::vector<util::Time> o_m, e_m, j_m, w_m, r_m, d_m, ttp_wait;
    std::vector<std::int64_t> i_m;  ///< bytes ahead in OutTTP
  };

  /// Zeroes the state (std::vector::assign keeps capacity: no allocation
  /// after the first call) and returns it.
  [[nodiscard]] State& reset_state();

  // --- delta-analysis trajectory storage ------------------------------
  /// Snapshot of one outer fixed-point pass: the state at the pass
  /// boundary plus the mid-pass values the dirtiness checks need (r_p and
  /// d_m after propagation, r_m after CAN arbitration) and the
  /// divergence-counter increments each component contributed, so a
  /// replayed component reproduces the diverged accounting exactly.
  struct PassSnapshot {
    State end;                        ///< state after pass 4
    std::vector<util::Time> r_p_mid;  ///< r_p after pass 1
    std::vector<util::Time> d_m_mid;  ///< d_m after pass 1
    std::vector<util::Time> r_m_mid;  ///< r_m after pass 3
    std::vector<std::int32_t> p2_div; ///< per-process pass-2 increments
    std::int32_t can_div = 0;         ///< pass-3 increment
    std::int32_t ttp_div = 0;         ///< pass-4 increment
  };

  /// Recorded trajectory of one response-time-analysis run.  `used`
  /// passes are valid (buffers beyond it are retained capacity);
  /// `complete` means every executed pass was captured, so the last
  /// snapshot IS the final state (required for the buffer-bound replay).
  struct RtaTrajectory {
    std::vector<PassSnapshot> passes;
    std::size_t used = 0;
    bool complete = false;
    BufferBounds bounds;
    bool bounds_valid = false;
  };

  /// Trajectories longer than this are captured up to the cap; delta runs
  /// recompute the uncovered tail (still exact, just not incremental).
  /// Bounds memory on pathological non-converging systems.
  static constexpr std::size_t kMaxStoredPasses = 24;

  /// One MultiClusterScheduling iteration of the recorded base run.
  struct McsIterRecord {
    std::vector<util::Time> constraints_release;  ///< as fed to list_schedule
    sched::TtcSchedule schedule;
    RtaTrajectory traj;
  };

  /// The recorded base MCS run plus the inputs later runs compare against.
  /// Only the analysis options and the iteration cap gate eligibility: a
  /// mismatch there forces the cold fallback (which re-captures a fresh
  /// base).  The TDMA round keys the schedule memo and the pass-4 drain
  /// calendar, the message pins key the memo, and priorities feed the
  /// per-component dirtiness.  Everything else each pass compares in the
  /// state itself.
  struct McsBase {
    bool valid = false;
    // Eligibility gate.
    AnalysisOptions analysis_options;
    int max_iterations = 0;
    // Compared per input.
    std::optional<arch::TdmaRound> tdma;
    std::vector<util::Time> pins_tx;
    std::vector<Priority> process_priorities;
    std::vector<Priority> message_priorities;
    // Iteration records; iter_record maps loop index -> record index so
    // elided iterations alias the record they replay.
    std::vector<McsIterRecord> records;
    std::size_t records_used = 0;
    std::vector<std::size_t> iter_record;
  };

  [[nodiscard]] DeltaMode delta_mode() const noexcept { return delta_mode_; }
  void set_delta_mode(DeltaMode mode) noexcept { delta_mode_ = mode; }
  [[nodiscard]] DeltaStats& delta_stats() noexcept { return delta_stats_; }
  [[nodiscard]] const DeltaStats& delta_stats() const noexcept { return delta_stats_; }

  /// The committed base run (internal to multi_cluster_scheduling).
  [[nodiscard]] McsBase& mcs_base() noexcept { return mcs_base_; }
  /// The in-progress capture (internal to multi_cluster_scheduling).
  [[nodiscard]] McsBase& mcs_capture() noexcept { return mcs_capture_; }
  /// Publishes the capture as the new base (a swap: the outgoing base's
  /// buffers become the next capture's retained capacity).
  void commit_mcs_capture() { std::swap(mcs_base_, mcs_capture_); }
  /// Drops the recorded base (the next delta-mode run falls back to cold).
  void invalidate_mcs_base() noexcept {
    mcs_base_.valid = false;
    mcs_capture_.valid = false;
  }

  /// Pass-2 dirtiness scratch (per ProcessId; internal to the analysis).
  [[nodiscard]] std::vector<std::uint8_t>& prio_changed_scratch() noexcept {
    return prio_changed_scratch_;
  }

  // --- convergence trace sink -----------------------------------------
  /// One fixed-point trace record: the FNV-1a hash of the complete State
  /// after pass `pass` of MCS iteration `mcs_iteration` (pass -1 records
  /// the TTC schedule produced at the top of the iteration).  Golden-trace
  /// regression tests diff these at iteration granularity.
  struct TraceRecord {
    int mcs_iteration = 0;
    int pass = 0;
    std::uint64_t hash = 0;
  };

  [[nodiscard]] std::vector<TraceRecord>* trace_sink() const noexcept {
    return trace_sink_;
  }
  void set_trace_sink(std::vector<TraceRecord>* sink) noexcept {
    trace_sink_ = sink;
  }
  [[nodiscard]] int trace_iteration() const noexcept { return trace_iteration_; }
  void set_trace_iteration(int iteration) noexcept { trace_iteration_ = iteration; }

  // --- observability sampling ------------------------------------------
  /// Monotonic analysis-run counter, bumped on EVERY mcs_run regardless of
  /// whether tracing is armed, so the sampled-run set (run index divisible
  /// by obs::kAnalysisSampleEvery) is a deterministic property of the
  /// workload, not of when the tracer was switched on.
  [[nodiscard]] std::uint64_t next_obs_run() noexcept { return obs_runs_++; }
  /// Whether the analysis run currently in flight was picked for span
  /// sampling (set by mcs_run, read by the RTA pass loop).
  [[nodiscard]] bool obs_sampled() const noexcept { return obs_sampled_; }
  void set_obs_sampled(bool sampled) noexcept { obs_sampled_ = sampled; }

private:
  void build();

  const model::Application* app_;
  const arch::Platform* platform_;
  const model::ReachabilityIndex* reach_;
  /// Set when the workspace owns its reachability index (two-arg ctor).
  std::unique_ptr<model::ReachabilityIndex> owned_reach_;

  std::vector<MessageRoute> routes_;
  std::vector<util::Time> can_tx_;
  std::vector<util::MessageId> can_messages_;
  std::vector<util::MessageId> et_to_tt_;
  std::vector<util::MessageId> tt_to_et_;
  std::vector<std::vector<util::ProcessId>> et_procs_by_node_;
  std::vector<std::vector<util::MessageId>> out_ni_by_node_;
  std::vector<std::vector<util::ProcessId>> topo_;
  bool has_gateway_ = false;
  util::NodeId gateway_ = util::NodeId::invalid();
  util::Time r_transfer_ = 0;
  util::Time cap_ = 0;
  sched::TtcSchedule empty_ttc_;
  std::vector<util::Time> critical_path_;

  std::vector<ProcPool> proc_pools_;
  CanPool can_pool_;
  PackedScratch packed_scratch_;
  std::vector<CandidateCache> proc_cand_cache_;
  CandidateCache can_cand_cache_;

  std::vector<util::Time> intra_o_, intra_e_, intra_j_, intra_r_;
  std::vector<std::uint8_t> intra_flags_;
  std::vector<std::uint8_t> intra_pool_valid_;
  std::vector<util::Time> intra_m_o_, intra_m_e_, intra_m_j_, intra_m_w_,
      intra_m_d_, intra_m_r_;
  std::vector<std::uint8_t> intra_m_flags_;
  std::uint8_t intra_can_valid_ = 0;
  std::vector<util::Time> intra_t_o_, intra_t_e_, intra_t_j_, intra_t_w_,
      intra_t_r_, intra_t_d_, intra_t_i_, intra_t_wait_;
  std::uint8_t intra_ttp_state_ = 0;
  std::vector<std::uint8_t> p1_active_;
  std::vector<std::uint32_t> proc_graph_, msg_graph_;

  State state_;

  DeltaMode delta_mode_ = DeltaMode::Off;
  DeltaStats delta_stats_;
  McsBase mcs_base_;
  McsBase mcs_capture_;
  std::vector<std::uint8_t> prio_changed_scratch_;

  std::vector<TraceRecord>* trace_sink_ = nullptr;
  int trace_iteration_ = -1;

  std::uint64_t obs_runs_ = 0;
  bool obs_sampled_ = false;
};

/// FNV-1a hash of the complete fixed-point state (trace records, tests).
[[nodiscard]] std::uint64_t state_hash(const AnalysisWorkspace::State& state);

}  // namespace mcs::core

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
//   * topological orders per graph, and pass 1 compiled from them into
//     flat per-process op lists (the Packed kernel's sweep),
//   * the precedence reachability closure,
//   * the gateway transfer WCET and the divergence cap,
//   * an empty TTC schedule for pure-ET analyses,
//   * structure-of-arrays pools for the quadratic recurrence passes
//     (WCETs/periods/frame times packed contiguously, plus precomputed
//     interference-pair classes so the inner loops never chase the
//     reachability index; the OutTTP FIFO pool gathers its members' classes
//     the same way),
//   * the layout of the pass-component records.
//
// The TTC list schedule is compiled into a sched::ListProgram (TT processes
// in critical-path order, flat successor and out-message arcs) on the first
// MultiClusterScheduling run and kept for the rest.
//
// The workspace additionally owns the fixed-point State buffers (13
// vectors over processes/messages) which are RESET, not reallocated, on
// every analysis call, the packed kernel's scratch arrays, and the
// component records (DESIGN.md §2 "Component records").
//
// Component records: every (MCS iteration, pass, component) coordinate
// holds one record of the component's entry (the State fields and
// per-run constants it reads) and the fields it left.  A component is a
// pure function of its entry, so a record whose entry matches replays
// exactly, whichever run or pass wrote it.  The analysis replays the
// record an earlier run left at the same coordinate when `delta_mode()`
// is On (cross-run replay), otherwise the one this run left at the
// previous pass (intra-run skip, Packed kernel only), otherwise, with
// cross-run replay on, the one this run's previous MCS iteration left at
// the same pass, and otherwise runs the component and writes its record.
// Mode Check runs the replaying leg AND a cold leg and throws on any
// difference.
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
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mcs/arch/ttp.hpp"
#include "mcs/core/analysis_types.hpp"
#include "mcs/model/process_graph.hpp"
#include "mcs/sched/list_scheduler.hpp"

namespace mcs::core {

/// Incremental-evaluation policy of the MultiClusterScheduling overload
/// that reuses a workspace.  Off = no cross-run replay (the seed
/// behavior); On = replay the records earlier runs left; Check = run the
/// replaying leg and a cold leg, compare bitwise, throw std::logic_error
/// on any mismatch.
enum class DeltaMode { Off, On, Check };

/// Resolves the mode from the environment: MCS_DELTA_CHECK=1 selects
/// Check, MCS_DELTA=0/off selects Off, otherwise On.
[[nodiscard]] DeltaMode delta_mode_from_env() noexcept;

/// Resolves the analysis kernel from the environment: MCS_KERNEL=reference
/// selects the Reference oracle, otherwise Packed.  exp::SpecBase's
/// mcs_options() reads it, so it reaches every mcs_synth run.
[[nodiscard]] AnalysisKernel kernel_from_env() noexcept;

/// Inclusive upper bounds of the per-run fixed-point iteration buckets
/// (DeltaStats::runs_by_iterations); one overflow bucket follows.
inline constexpr std::array<std::int64_t, 8> kIterationBounds = {1, 2, 3, 4,
                                                                 6, 8, 12, 16};

/// Counters of the incremental-evaluation machinery (per workspace).
struct DeltaStats {
  std::uint64_t full_runs = 0;      ///< MCS runs without cross-run replay
  std::uint64_t delta_runs = 0;     ///< MCS runs with cross-run replay enabled
  std::uint64_t fallbacks = 0;      ///< record generation bumps (options moved)
  std::uint64_t checked = 0;        ///< Check-mode comparisons performed
  std::uint64_t mismatches = 0;     ///< Check-mode divergences detected
  std::uint64_t elided_iterations = 0;    ///< provably-redundant MCS iterations
  std::uint64_t components_skipped = 0;   ///< cross-run record replays
  std::uint64_t components_recomputed = 0;  ///< components run where replay applied
  std::uint64_t cand_cache_hits = 0;      ///< candidate lists reused as-is
  std::uint64_t cand_cache_rebuilds = 0;  ///< kernel calls that (re)built lists
  std::uint64_t intra_skips = 0;          ///< members of intra-run record replays
  std::uint64_t iteration_skips = 0;      ///< previous-MCS-iteration record replays
  std::uint64_t p1_process_skips = 0;     ///< pass-1 visits elided for clean processes
  /// MCS runs by iteration count: bucket b counts the runs of at most
  /// kIterationBounds[b] iterations no earlier bucket counts; the last
  /// bucket counts the rest.  A Check-mode run counts both of its legs.
  std::array<std::uint64_t, kIterationBounds.size() + 1> runs_by_iterations{};
  std::uint64_t iterations = 0;  ///< fixed-point iterations over those runs

  void record_run(int run_iterations) noexcept {
    std::size_t b = 0;
    while (b < kIterationBounds.size() && run_iterations > kIterationBounds[b]) ++b;
    ++runs_by_iterations[b];
    iterations += static_cast<std::uint64_t>(run_iterations);
  }
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
  /// StaticScheduling compiled for this application and platform
  /// (critical-path order; DESIGN.md §1).  Compiled on first use.
  [[nodiscard]] sched::ListProgram& list_program();

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
    /// Pool indices by frame time, largest first (ties by index): the
    /// order of the cached blocking lists.
    std::vector<std::uint32_t> by_tx;
  };

  /// The OutTTP FIFO pool (the ET->TT messages, in et_to_tt() order) with
  /// its members' static quantities packed.  Every member rides the CAN
  /// bus, so its interfere classes are CanPool::interfere's, read through
  /// its position there.
  struct TtpPool {
    std::vector<util::MessageId> mids;
    std::vector<util::Time> size;  ///< bytes
    std::vector<util::Time> tx;
    std::vector<util::Time> period;
    std::vector<std::size_t> can;  ///< position in CanPool::mids
  };

  [[nodiscard]] const std::vector<ProcPool>& proc_pools() const noexcept {
    return proc_pools_;
  }
  [[nodiscard]] const CanPool& can_pool() const noexcept { return can_pool_; }
  [[nodiscard]] const TtpPool& ttp_pool() const noexcept { return ttp_pool_; }

  /// Reusable gather buffers for the packed kernel (sized to the largest
  /// pool at build time; see DESIGN.md §2 "Analysis kernels").
  struct PackedScratch {
    std::vector<util::Time> o, e, j, w, r, d, wait;
    std::vector<Priority> prio;
    std::vector<util::Time> key;  ///< a component's record key (run_component)
    /// Per-member compacted interference candidates.  The pruning
    /// predicates and each candidate's phase/span never read the member's
    /// iterated w (its own window anchors are hoisted), so the kernel
    /// resolves them ONCE per member, in two stages: the pool indices of
    /// the candidates that pass the predicates go to `survivors`, then the
    /// survivors' terms go to the parallel arrays the w-recurrence sums
    /// over: the w-independent addend a = J_x + J_j - phase_j, the period
    /// and the cost.
    std::vector<std::uint32_t> survivors;
    std::vector<util::Time> cand_a, cand_period, cand_cost;

    /// Total heap bytes currently reserved by the scratch arrays; the
    /// memory-stability test asserts this stops growing after warmup.
    [[nodiscard]] std::size_t footprint_bytes() const noexcept {
      return (o.capacity() + e.capacity() + j.capacity() + w.capacity() +
              r.capacity() + d.capacity() + wait.capacity() + key.capacity() +
              cand_a.capacity() +
              cand_period.capacity() + cand_cost.capacity()) *
                 sizeof(util::Time) +
             prio.capacity() * sizeof(Priority) +
             survivors.capacity() * sizeof(std::uint32_t);
    }
  };
  [[nodiscard]] PackedScratch& packed_scratch() noexcept { return packed_scratch_; }

  /// Pass 1 compiled for the Packed kernel (DESIGN.md §2 "Analysis
  /// kernels"): one op per process in sweep order (graphs by index, each
  /// in topological order) over flat arc and out-message lists, so the
  /// sweep never reads the application model.  Input arcs are classified
  /// by route, and pure-precedence arcs (predecessors no input message
  /// comes from) are resolved once here.
  struct Pass1Program {
    /// How an input arc's release and latest arrival are read:
    ///   kFromSender       sender's o + C (local message); the message's d
    ///   kFromPredecessor  pure-precedence predecessor's o + C; its o + r
    ///   kFromOffset       the message's o (TTP delivery); its d
    ///   kFromCan          the message's e + C on CAN; its d
    enum ArcKind : std::uint8_t { kFromSender, kFromPredecessor, kFromOffset, kFromCan };
    struct Arc {
      ArcKind kind;
      std::uint32_t source;   ///< sender/predecessor process, or the message
      std::uint32_t message;  ///< the message (unused for kFromPredecessor)
      util::Time add;         ///< the C above: source WCET or CAN frame time
    };
    struct Out {
      MessageRoute route;
      std::uint32_t message;
    };
    struct Op {
      std::uint32_t pid;
      bool tt;
      util::Time wcet;
      std::uint32_t arcs_begin, arcs_end, outs_begin, outs_end;
    };
    std::vector<Op> ops;
    std::vector<Arc> arcs;
    std::vector<Out> outs;
    /// readers[reader_begin[p] .. reader_begin[p + 1]): the ETC processes
    /// whose visit reads p's values, pure-precedence successors (which
    /// read r_p) first, up to prec_end[p].
    std::vector<std::uint32_t> readers, reader_begin, prec_end;
    /// Sender and receiver process index of each message.
    std::vector<std::uint32_t> msg_src, msg_dst;
    /// Per-process dirty byte: the sweep visits a process only while it is
    /// set.  A visit clears it unless it attempted an over-cap raise (so
    /// `diverged` keeps counting); a visit that changed a value marks the
    /// process's readers; pass-2 writebacks and replays mark the process
    /// and its pure-precedence successors, pass-3 ones the message's sender
    /// and receiver (pass 4 writes no pass-1 input).
    std::vector<std::uint8_t> dirty;

    void mark_process(std::size_t p) noexcept {
      dirty[p] = 1;
      for (std::uint32_t r = reader_begin[p]; r < prec_end[p]; ++r) {
        dirty[readers[r]] = 1;
      }
    }
    void mark_message(std::size_t m) noexcept {
      dirty[msg_src[m]] = 1;
      dirty[msg_dst[m]] = 1;
    }
    void mark_readers(std::size_t p) noexcept {
      for (std::uint32_t r = reader_begin[p]; r < reader_begin[p + 1]; ++r) {
        dirty[readers[r]] = 1;
      }
    }
  };
  [[nodiscard]] Pass1Program& pass1() noexcept { return pass1_; }

  /// Cached priority-compacted candidate lists, reused across evaluations.
  /// The static candidate relation of a pool member depends only on the
  /// pool's priority vector and on offset_pruning (pair classes are baked
  /// at build time), so the lists stay valid until a priority inside the
  /// pool or the pruning flag changes, which rebuilds them all.  `prio`
  /// and `pruned` are the fingerprint the kernels revalidate against on
  /// entry.  Under pruning the lists hold no kPairPruned pair.
  struct CandidateCache {
    bool valid = false;
    bool pruned = false;              ///< offset_pruning the lists were built under
    std::vector<Priority> prio;       ///< priorities the lists were built under
    std::vector<std::uint32_t> list;  ///< stride-n: hp candidates of member x
    /// 1 when the candidate needs no window check (no pruning, or class
    /// kPairAlways), 0 for a kPairWindow candidate.
    std::vector<std::uint8_t> always;
    std::vector<std::uint32_t> len;   ///< candidate count per member
    /// CAN pool only: the non-higher-priority blocking candidates, by frame
    /// time, largest first (CanPool::by_tx order).
    std::vector<std::uint32_t> blk_list;
    std::vector<std::uint8_t> blk_always;
    std::vector<std::uint32_t> blk_len;

    [[nodiscard]] std::size_t footprint_bytes() const noexcept {
      return (list.capacity() + blk_list.capacity() + len.capacity() +
              blk_len.capacity()) *
                 sizeof(std::uint32_t) +
             always.capacity() + blk_always.capacity() +
             prio.capacity() * sizeof(Priority);
    }
  };
  [[nodiscard]] CandidateCache& proc_cand_cache(std::size_t pool) noexcept {
    return proc_cand_cache_[pool];
  }
  [[nodiscard]] CandidateCache& can_cand_cache() noexcept {
    return can_cand_cache_;
  }

  /// Scratch and candidate-cache heap footprint (memory-stability tests).
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
  /// after the first call), marks every process dirty for pass 1 and
  /// returns the state.
  [[nodiscard]] State& reset_state();
  /// The state the last analysis run left.
  [[nodiscard]] const State& state() const noexcept { return state_; }

  // --- component records (DESIGN.md §2 "Component records") ------------
  /// Passes at or past this index share the last record slot of their MCS
  /// iteration, which bounds the store on slowly converging systems.
  static constexpr std::size_t kMaxStoredPasses = 24;

  /// Per-member State fields each component kind reads (entry) and
  /// writes (left), and its key values; the pass drivers in
  /// response_time_analysis.cpp list the fields in this order.
  ///   pool:  entry o e j w r,          left w r,         key: priorities
  ///   bus:   entry o e j w d r,        left w r d,       key: priorities
  ///   drain: entry o e j w r d wait,   left i wait d r,  key: calendar (4)
  static constexpr std::size_t kPoolEntry = 5, kPoolLeft = 2;
  static constexpr std::size_t kCanEntry = 6, kCanLeft = 3;
  static constexpr std::size_t kTtpEntry = 7, kTtpLeft = 4, kTtpKey = 4;

  /// Record length of a component: {generation, divergence increment,
  /// key, entry fields, fields left}, fields stored field-major.
  [[nodiscard]] static constexpr std::size_t record_size(std::size_t members,
                                                         std::size_t key,
                                                         std::size_t entry,
                                                         std::size_t left) noexcept {
    return 2 + key + (entry + left) * members;
  }
  /// Offset of each component's record inside a slot, and the slot size.
  struct RecordLayout {
    std::vector<std::size_t> pool;  ///< per ProcPool
    std::size_t can = 0;
    std::size_t ttp = 0;
    std::size_t slot_size = 0;
  };
  [[nodiscard]] const RecordLayout& record_layout() const noexcept {
    return record_layout_;
  }
  /// The record slot of pass `pass` of MCS iteration `iteration`, allocated
  /// zeroed (generation 0 never matches) on first use.
  [[nodiscard]] util::Time* record_slot(std::size_t iteration, std::size_t pass);
  /// The same slot for lookup only: null when it was never allocated.
  [[nodiscard]] const util::Time* stored_slot(std::size_t iteration,
                                              std::size_t pass) const noexcept;

  /// The record generation of `options`: records written under other
  /// analysis options never replay, so a change of options starts a new
  /// generation (counted as a fallback unless it is the first run's).
  [[nodiscard]] util::Time record_generation(const AnalysisOptions& options) noexcept {
    if (generation_ == 0 || !same_options(options, generation_options_)) {
      if (generation_ != 0) ++delta_stats_.fallbacks;
      ++generation_;
      generation_options_ = options;
    }
    return generation_;
  }

  /// Heap bytes of the record store (the component slots).
  [[nodiscard]] std::size_t record_bytes() const noexcept;

  [[nodiscard]] DeltaMode delta_mode() const noexcept { return delta_mode_; }
  void set_delta_mode(DeltaMode mode) noexcept { delta_mode_ = mode; }
  [[nodiscard]] DeltaStats& delta_stats() noexcept { return delta_stats_; }
  [[nodiscard]] const DeltaStats& delta_stats() const noexcept { return delta_stats_; }

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
  void compile_pass1();

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
  std::vector<std::vector<util::MessageId>> out_ni_by_node_;
  std::vector<std::vector<util::ProcessId>> topo_;
  bool has_gateway_ = false;
  util::NodeId gateway_ = util::NodeId::invalid();
  util::Time r_transfer_ = 0;
  util::Time cap_ = 0;
  sched::TtcSchedule empty_ttc_;
  std::optional<sched::ListProgram> list_program_;

  std::vector<ProcPool> proc_pools_;
  CanPool can_pool_;
  PackedScratch packed_scratch_;
  std::vector<CandidateCache> proc_cand_cache_;
  CandidateCache can_cand_cache_;

  Pass1Program pass1_;
  TtpPool ttp_pool_;

  State state_;

  RecordLayout record_layout_;
  std::vector<std::vector<util::Time>> record_slots_;
  util::Time generation_ = 0;
  AnalysisOptions generation_options_;

  DeltaMode delta_mode_ = DeltaMode::Off;
  DeltaStats delta_stats_;

  std::vector<TraceRecord>* trace_sink_ = nullptr;

  std::uint64_t obs_runs_ = 0;
  bool obs_sampled_ = false;
};

/// FNV-1a hash of the complete fixed-point state (trace records, tests).
[[nodiscard]] std::uint64_t state_hash(const AnalysisWorkspace::State& state);

}  // namespace mcs::core

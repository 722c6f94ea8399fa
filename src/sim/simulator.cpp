#include "mcs/sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "mcs/core/analysis_types.hpp"
#include "mcs/sim/event.hpp"

namespace mcs::sim {

namespace {

using core::MessageRoute;
using core::SystemConfig;
using model::Application;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

/// Per-node ETC ready queue and the CAN pending set: a (priority, id)
/// min-heap.  It pops the highest priority (smallest value) first, ties by
/// id, which is the order a std::set<std::pair<Priority, Id>> iterates in.
/// Each id is queued at most once at a time.
class PriorityHeap {
public:
  void push(core::Priority prio, std::uint32_t id) {
    keys_.push_back(key(prio) << 32 | id);
    std::push_heap(keys_.begin(), keys_.end(), std::greater<>{});
  }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  [[nodiscard]] core::Priority top_priority() const noexcept {
    return static_cast<core::Priority>(
        static_cast<std::uint32_t>(keys_.front() >> 32) ^ kSignBit);
  }
  std::uint32_t pop() {
    std::pop_heap(keys_.begin(), keys_.end(), std::greater<>{});
    const auto id = static_cast<std::uint32_t>(keys_.back());
    keys_.pop_back();
    return id;
  }

private:
  static constexpr std::uint32_t kSignBit = 0x80000000u;
  /// Order-preserving map of a signed priority onto an unsigned word.
  [[nodiscard]] static std::uint64_t key(core::Priority prio) noexcept {
    return static_cast<std::uint32_t>(prio) ^ kSignBit;
  }
  std::vector<std::uint64_t> keys_;
};

void append(std::string& label, std::string_view part) { label += part; }
template <typename Int>
  requires std::is_integral_v<Int>
void append(std::string& label, Int part) {
  label += std::to_string(part);
}

struct Sim {
  const Application& app;
  const arch::Platform& platform;
  const SystemConfig& cfg;
  const sched::TtcSchedule& ttc;
  const SimOptions& opt;

  EventQueue q;
  SimResult out;
  FaultInjector* inject = nullptr;  ///< optional; owned by the caller

  // Static per-activity data.
  std::vector<MessageRoute> route;
  std::vector<Time> can_tx;

  // Process state.
  std::vector<std::size_t> inputs_remaining;
  std::vector<bool> started;
  std::vector<bool> finished;
  std::vector<Time> finish_time;
  std::vector<bool> tt_release_reached;  ///< schedule-table time passed

  // TT nodes execute sequentially.
  std::vector<Time> tt_busy_until;  ///< by node index

  // ETC fixed-priority preemptive state, one per node index.
  struct Running {
    ProcessId process;
    Time remaining = 0;
    Time resumed_at = 0;
    std::uint64_t version = 0;
  };
  std::vector<std::optional<Running>> running;
  std::vector<PriorityHeap> ready;
  std::vector<Time> et_remaining;  ///< per process, while preempted/ready
  std::uint64_t dispatch_version = 0;

  // CAN bus.
  bool can_busy = false;
  bool can_arbitration_scheduled = false;
  PriorityHeap can_pending;
  std::vector<int> can_retries;  ///< fault-injected retransmissions so far

  // Gateway queues.
  std::int64_t out_can_bytes = 0;
  std::int64_t out_ttp_bytes = 0;
  std::vector<std::int64_t> out_node_bytes;  ///< by node index
  std::deque<MessageId> out_ttp_fifo;
  std::int64_t front_bytes_left = 0;  ///< remaining bytes of the FIFO head
  bool sg_pack_scheduled = false;
  bool has_sg_slot = false;
  std::size_t sg_slot = 0;

  explicit Sim(const Application& a, const arch::Platform& p,
               const SystemConfig& c, const sched::TtcSchedule& t,
               const SimOptions& o)
      : app(a), platform(p), cfg(c), ttc(t), opt(o) {}

  /// Records a trace line; the label is concatenated from `parts` only
  /// when tracing is on.
  template <typename... Parts>
  void trace(Time t, TraceKind kind, const Parts&... parts) {
    if (!out.trace.enabled()) return;
    std::string label;
    (append(label, parts), ...);
    out.trace.add(t, kind, std::move(label));
  }

  void violation(std::string msg) {
    out.violations.push_back(std::move(msg));
    trace(q.now(), TraceKind::Violation, out.violations.back());
  }

  [[nodiscard]] const std::string& pname(ProcessId p) const {
    return app.process(p).name;
  }
  [[nodiscard]] const std::string& mname(MessageId m) const {
    return app.message(m).name;
  }

  // ---- ETC preemptive scheduling --------------------------------------

  void dispatch(std::size_t node) {
    auto& run = running[node];
    auto& rq = ready[node];
    if (run) {
      if (rq.empty()) return;
      if (rq.top_priority() >= cfg.process_priority(run->process)) return;
      // Preempt the running process.
      const Time executed = q.now() - run->resumed_at;
      et_remaining[run->process.index()] = run->remaining - executed;
      rq.push(cfg.process_priority(run->process), run->process.value());
      trace(q.now(), TraceKind::ProcessPreempt, pname(run->process));
      run.reset();
    }
    if (rq.empty()) return;
    const ProcessId p(rq.pop());
    const Time remaining = et_remaining[p.index()];
    const std::uint64_t version = ++dispatch_version;
    run = Running{p, remaining, q.now(), version};
    if (!started[p.index()]) {
      started[p.index()] = true;
      out.process_start[p.index()] = q.now();
      trace(q.now(), TraceKind::ProcessStart, pname(p));
    } else {
      trace(q.now(), TraceKind::ProcessResume, pname(p));
    }
    q.schedule(q.now() + remaining, EventKind::EtFinish, p.value(),
               static_cast<std::uint32_t>(node), version);
  }

  void et_finish(ProcessId p, std::uint64_t version, std::size_t node) {
    auto& run = running[node];
    if (!run || run->process != p || run->version != version) return;  // stale
    run.reset();
    complete_process(p);
    dispatch(node);
  }

  /// Actual execution time of one dispatch: the WCET, or a fault-injected
  /// draw from [bcet, wcet].
  [[nodiscard]] Time exec_time(ProcessId p) {
    const Time wcet = app.process(p).wcet;
    return inject ? inject->exec_time(wcet) : wcet;
  }

  void release_et(ProcessId p) {
    const std::size_t node = app.process(p).node.index();
    et_remaining[p.index()] = exec_time(p);
    ready[node].push(cfg.process_priority(p), p.value());
    dispatch(node);
  }

  // ---- TT dispatch ------------------------------------------------------

  void try_start_tt(ProcessId p) {
    if (started[p.index()]) return;
    if (!tt_release_reached[p.index()]) return;
    const model::Process& proc = app.process(p);
    const std::size_t node = proc.node.index();
    if (inputs_remaining[p.index()] > 0) return;  // wait for inputs
    Time start = q.now();
    if (tt_busy_until[node] > start) {
      // The schedule table should prevent this; run anyway, flag it.
      violation("TT node busy at scheduled start of " + pname(p));
      start = tt_busy_until[node];
    }
    started[p.index()] = true;
    out.process_start[p.index()] = start;
    trace(start, TraceKind::ProcessStart, pname(p));
    const Time c = exec_time(p);
    tt_busy_until[node] = start + c;
    q.schedule(start + c, EventKind::TtFinish, p.value());
  }

  void tt_release(ProcessId p) {
    tt_release_reached[p.index()] = true;
    if (inputs_remaining[p.index()] > 0) {
      // An input delivery at this very instant may still be queued behind
      // this event (the analysis treats "delivered at t" and "starts at t"
      // as compatible); re-check after all same-time events have fired.
      q.schedule(q.now(), EventKind::TtInputCheck, p.value());
      return;  // started when the last input arrives
    }
    try_start_tt(p);
  }

  void tt_input_check(ProcessId p) {
    if (!started[p.index()] && inputs_remaining[p.index()] > 0) {
      violation("input not present at schedule-table start of " + pname(p));
    }
  }

  // ---- Completion and message injection ----------------------------------

  void complete_process(ProcessId p) {
    finished[p.index()] = true;
    finish_time[p.index()] = q.now();
    out.process_completion[p.index()] = q.now();
    trace(q.now(), TraceKind::ProcessFinish, pname(p));

    const model::Process& proc = app.process(p);
    for (const MessageId m : proc.out_messages) send_message(m);
    // Pure-precedence arcs (and local messages) release successors now;
    // a successor some message goes to is released by that message.
    for (const ProcessId succ : proc.successors) {
      const bool message_target =
          std::any_of(proc.out_messages.begin(), proc.out_messages.end(),
                      [&](MessageId m) { return app.message(m).dst == succ; });
      if (!message_target) input_arrived(succ);
    }
  }

  void send_message(MessageId m) {
    const model::Message& msg = app.message(m);
    switch (route[m.index()]) {
      case MessageRoute::Local:
        out.message_delivery[m.index()] = q.now();
        input_arrived(msg.dst);
        break;
      case MessageRoute::TtToTt:
      case MessageRoute::TtToEt:
        send_on_ttp(m);
        break;
      case MessageRoute::EtToEt:
      case MessageRoute::EtToTt: {
        // Enqueue into the sender node's OutN queue.
        const std::size_t node = app.process(msg.src).node.index();
        out_node_bytes[node] += msg.size_bytes;
        std::int64_t& peak = out.max_out_node[app.process(msg.src).node];
        peak = std::max(peak, out_node_bytes[node]);
        can_pending.push(cfg.message_priority(m), m.value());
        trace(q.now(), TraceKind::MessageEnqueue, mname(m), " -> OutN");
        try_can();
        break;
      }
    }
  }

  // ---- TTP leg ------------------------------------------------------------

  void send_on_ttp(MessageId m) {
    const auto& assignment = ttc.message_slot[m.index()];
    if (!assignment) {
      violation("message " + mname(m) + " has no MEDL slot assignment");
      return;
    }
    Time delivery = assignment->delivery;
    if (q.now() > assignment->tx_start) {
      violation("message " + mname(m) + " missed its MEDL slot");
      const auto& tdma = cfg.tdma();
      delivery = tdma.kth_slot_end(assignment->slot_index, q.now(),
                                   assignment->rounds);
    }
    if (inject) {
      // A corrupted TTP frame is retransmitted in the owner's slot of the
      // next round, once per lost round; past the retry budget the frame
      // (and the message with it) is gone for good.
      const int losses = inject->ttp_round_losses();
      if (losses > inject->spec().ttp_max_retries) {
        ++inject->counters.ttp_messages_lost;
        out.lost_messages.push_back(mname(m));
        trace(q.now(), TraceKind::Fault, "message ", mname(m), " lost on TTP");
        return;
      }
      if (losses > 0) {
        delivery += losses * cfg.tdma().round_length();
        trace(q.now(), TraceKind::Fault, "TTP frame of ", mname(m), " dropped ",
              losses, " round(s)");
      }
    }
    trace(q.now(), TraceKind::SlotTx, mname(m), " in slot ", assignment->slot_index);
    q.schedule(delivery, EventKind::TtpDelivered, m.value());
  }

  void ttp_delivered(MessageId m) {
    if (route[m.index()] == MessageRoute::TtToTt) {
      deliver(m);
      return;
    }
    // TT->ET: frame landed in the gateway MBI; the transfer process T
    // moves it into OutCAN within its response time r_T = C_T (plus any
    // injected gateway clock drift).
    const Time r_t = platform.gateway_transfer().wcet +
                     (inject ? inject->gateway_jitter() : 0);
    q.schedule(q.now() + r_t, EventKind::GatewayTransfer, m.value());
  }

  void gateway_transfer(MessageId m) {
    out_can_bytes += app.message(m).size_bytes;
    out.max_out_can = std::max(out.max_out_can, out_can_bytes);
    can_pending.push(cfg.message_priority(m), m.value());
    trace(q.now(), TraceKind::MessageEnqueue, mname(m), " -> OutCAN");
    try_can();
  }

  // ---- CAN bus --------------------------------------------------------------

  // Arbitration is deferred by one zero-delay event so that every message
  // enqueued at the current instant (e.g. two messages delivered by one
  // TTP frame and moved by one transfer-process invocation) participates:
  // the highest-priority one must win even against an idle bus.
  void try_can() {
    if (can_busy || can_arbitration_scheduled || can_pending.empty()) return;
    can_arbitration_scheduled = true;
    q.schedule(q.now(), EventKind::CanArbitrate);
  }

  void arbitrate_can() {
    can_arbitration_scheduled = false;
    if (can_busy || can_pending.empty()) return;
    // A babbling idiot wins arbitration outright (it transmits with the
    // highest identifier priority) and holds the bus for babble_tx.
    if (inject && inject->babble()) {
      can_busy = true;
      trace(q.now(), TraceKind::Fault, "babbling idiot seizes CAN");
      q.schedule(q.now() + inject->spec().babble_tx, EventKind::BabbleEnd);
      return;
    }
    const MessageId m(can_pending.pop());
    can_busy = true;
    // Leaving the output queue: the frame is now in the controller.
    if (route[m.index()] == MessageRoute::TtToEt) {
      out_can_bytes -= app.message(m).size_bytes;
    } else {
      const std::size_t node = app.process(app.message(m).src).node.index();
      out_node_bytes[node] -= app.message(m).size_bytes;
    }
    trace(q.now(), TraceKind::MessageTxStart, mname(m));
    Time wire = can_tx[m.index()];
    if (inject) {
      const Time extra = inject->can_extra_delay();
      if (extra > 0) {
        trace(q.now(), TraceKind::Fault, "CAN frame of ", mname(m), " delayed ",
              extra);
        wire += extra;
      }
    }
    q.schedule(q.now() + wire, EventKind::CanDone, m.value());
  }

  void can_done(MessageId m) {
    can_busy = false;
    // Injected corruption: CAN controllers retransmit automatically (the
    // frame stays in the controller, so no queue bytes are re-charged);
    // past the retry budget the message is lost and its destination
    // starves.
    if (inject && inject->corrupt_can_frame()) {
      if (++can_retries[m.index()] > inject->spec().can_max_retries) {
        ++inject->counters.can_messages_lost;
        out.lost_messages.push_back(mname(m));
        trace(q.now(), TraceKind::Fault, "message ", mname(m), " lost on CAN");
      } else {
        can_pending.push(cfg.message_priority(m), m.value());
        trace(q.now(), TraceKind::Fault, "CAN frame of ", mname(m),
              " corrupted; retransmitting");
      }
      try_can();
      return;
    }
    if (route[m.index()] == MessageRoute::EtToTt) {
      // Arrived at the gateway CAN controller; into the OutTTP FIFO.
      if (out_ttp_fifo.empty()) front_bytes_left = app.message(m).size_bytes;
      out_ttp_fifo.push_back(m);
      out_ttp_bytes += app.message(m).size_bytes;
      out.max_out_ttp = std::max(out.max_out_ttp, out_ttp_bytes);
      trace(q.now(), TraceKind::MessageEnqueue, mname(m), " -> OutTTP");
      schedule_sg_pack();
    } else {
      deliver(m);
    }
    try_can();
  }

  // ---- OutTTP drain through S_G -----------------------------------------

  void schedule_sg_pack() {
    if (sg_pack_scheduled || out_ttp_fifo.empty()) return;
    if (!has_sg_slot) {
      violation("ET->TT message queued but the round has no gateway slot");
      return;
    }
    sg_pack_scheduled = true;
    q.schedule(cfg.tdma().next_slot_start(sg_slot, q.now()), EventKind::SgPack);
  }

  void sg_pack() {
    sg_pack_scheduled = false;
    if (out_ttp_fifo.empty()) return;
    const auto& tdma = cfg.tdma();
    std::int64_t capacity = tdma.slot_capacity(sg_slot);
    const Time slot_end = q.now() + tdma.slot(sg_slot).length;
    while (!out_ttp_fifo.empty() && capacity > 0) {
      const MessageId m = out_ttp_fifo.front();
      const std::int64_t chunk = std::min(front_bytes_left, capacity);
      capacity -= chunk;
      front_bytes_left -= chunk;
      out_ttp_bytes -= chunk;
      if (front_bytes_left > 0) break;  // head continues next round
      out_ttp_fifo.pop_front();
      if (!out_ttp_fifo.empty()) {
        front_bytes_left = app.message(out_ttp_fifo.front()).size_bytes;
      }
      trace(q.now(), TraceKind::SlotTx, mname(m), " in S_G");
      q.schedule(slot_end, EventKind::SgDelivered, m.value());
    }
    if (!out_ttp_fifo.empty()) {
      sg_pack_scheduled = true;
      q.schedule(q.now() + tdma.round_length(), EventKind::SgPack);
    }
  }

  // ---- Arrival bookkeeping -------------------------------------------------

  /// Message `m` reached its destination buffer.
  void deliver(MessageId m) {
    out.message_delivery[m.index()] = q.now();
    trace(q.now(), TraceKind::MessageDelivery, mname(m));
    input_arrived(app.message(m).dst);
  }

  void input_arrived(ProcessId p) {
    if (inputs_remaining[p.index()] == 0) return;  // defensive
    if (--inputs_remaining[p.index()] > 0) return;
    if (platform.is_tt(app.process(p).node)) {
      try_start_tt(p);
    } else {
      release_et(p);
    }
  }

  // ---- Event dispatch ----------------------------------------------------

  void handle(const Event& e) {
    const ProcessId p(e.id);
    const MessageId m(e.id);
    switch (e.kind) {
      case EventKind::TtRelease: tt_release(p); break;
      case EventKind::TtInputCheck: tt_input_check(p); break;
      case EventKind::EtRelease: release_et(p); break;
      case EventKind::TtFinish: complete_process(p); break;
      case EventKind::EtFinish: et_finish(p, e.version, e.node); break;
      case EventKind::TtpDelivered: ttp_delivered(m); break;
      case EventKind::GatewayTransfer: gateway_transfer(m); break;
      case EventKind::CanArbitrate: arbitrate_can(); break;
      case EventKind::BabbleEnd:
        can_busy = false;
        try_can();
        break;
      case EventKind::CanDone: can_done(m); break;
      case EventKind::SgPack: sg_pack(); break;
      case EventKind::SgDelivered: deliver(m); break;
    }
  }

  // ---- Setup and run ---------------------------------------------------------

  void run() {
    const std::size_t np = app.num_processes();
    const std::size_t nm = app.num_messages();
    out.process_start.assign(np, -1);
    out.process_completion.assign(np, -1);
    out.message_delivery.assign(nm, -1);
    out.graph_response.assign(app.num_graphs(), -1);
    out.trace = Trace(opt.record_trace);

    inputs_remaining.assign(np, 0);
    started.assign(np, false);
    finished.assign(np, false);
    finish_time.assign(np, 0);
    tt_release_reached.assign(np, false);
    tt_busy_until.assign(platform.num_nodes(), 0);
    running.assign(platform.num_nodes(), std::nullopt);
    ready.assign(platform.num_nodes(), {});
    et_remaining.assign(np, 0);
    out_node_bytes.assign(platform.num_nodes(), 0);
    can_retries.assign(nm, 0);

    route.resize(nm);
    can_tx.assign(nm, 0);
    for (std::size_t mi = 0; mi < nm; ++mi) {
      const MessageId m(static_cast<MessageId::underlying_type>(mi));
      route[mi] = core::classify_route(app, platform, m);
      if (route[mi] == MessageRoute::EtToEt || route[mi] == MessageRoute::EtToTt ||
          route[mi] == MessageRoute::TtToEt) {
        can_tx[mi] = platform.can().tx_time(app.message(m).size_bytes);
      }
    }
    if (platform.has_gateway() && cfg.tdma().owns_slot(platform.gateway())) {
      has_sg_slot = true;
      sg_slot = cfg.tdma().slot_of(platform.gateway());
    }

    for (std::size_t pi = 0; pi < np; ++pi) {
      inputs_remaining[pi] = app.processes()[pi].predecessors.size();
    }
    // Releases: TT at schedule-table offsets (perturbed by any injected
    // kernel clock jitter), ET sources at time 0.
    for (std::size_t pi = 0; pi < np; ++pi) {
      const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
      if (platform.is_tt(app.process(p).node)) {
        const Time jitter = inject ? inject->tt_release_jitter() : 0;
        q.schedule(cfg.process_offset(p) + jitter, EventKind::TtRelease, p.value());
      } else if (inputs_remaining[pi] == 0) {
        q.schedule(0, EventKind::EtRelease, p.value());
      }
    }

    const Time horizon =
        opt.horizon > 0 ? opt.horizon : 4 * app.hyper_period();
    std::int64_t executed = 0;
    while (executed < opt.max_events && !q.empty() && q.next_time() <= horizon) {
      handle(q.pop());
      ++executed;
    }

    out.completed = std::all_of(finished.begin(), finished.end(),
                                [](bool f) { return f; });
    if (out.completed) {
      out.status = SimStatus::Completed;
    } else if (executed >= opt.max_events) {
      out.status = SimStatus::EventLimitExhausted;
    } else if (!q.empty()) {
      out.status = SimStatus::HorizonExhausted;
    } else {
      out.status = SimStatus::Stalled;  // starved: an input never arrived
    }
    for (std::size_t pi = 0; pi < np; ++pi) {
      if (!finished[pi]) continue;
      auto& response = out.graph_response[app.processes()[pi].graph.index()];
      response = std::max(response, finish_time[pi]);
    }

    // Deadline verdicts: a graph with an unfinished process counts as an
    // unbounded miss.
    std::vector<bool> graph_unfinished(app.num_graphs(), false);
    for (std::size_t pi = 0; pi < np; ++pi) {
      if (!finished[pi]) {
        graph_unfinished[app.processes()[pi].graph.index()] = true;
      }
    }
    for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
      const Time deadline = app.graphs()[gi].deadline;
      const Time response =
          graph_unfinished[gi] ? util::kTimeInfinity : out.graph_response[gi];
      if (response > deadline) {
        out.deadline_misses.push_back(DeadlineMiss{gi, response, deadline});
      }
    }

    if (inject) out.faults = inject->counters;
  }
};

}  // namespace

const char* to_string(SimStatus status) {
  switch (status) {
    case SimStatus::Completed: return "completed";
    case SimStatus::HorizonExhausted: return "horizon";
    case SimStatus::EventLimitExhausted: return "event-limit";
    case SimStatus::Stalled: return "stalled";
  }
  return "?";
}

SimResult simulate(const Application& app, const arch::Platform& platform,
                   const SystemConfig& config,
                   const sched::TtcSchedule& ttc_schedule,
                   const SimOptions& options) {
  Sim sim(app, platform, config, ttc_schedule, options);
  sim.run();
  return std::move(sim.out);
}

SimResult simulate(const Application& app, const arch::Platform& platform,
                   const SystemConfig& config,
                   const sched::TtcSchedule& ttc_schedule,
                   const SimOptions& options, const FaultSpec& faults) {
  FaultInjector injector(faults);
  Sim sim(app, platform, config, ttc_schedule, options);
  sim.inject = &injector;
  sim.run();
  return std::move(sim.out);
}

std::size_t check_bounds(const Application& app,
                         const core::AnalysisResult& analysis,
                         SimResult& result) {
  std::size_t added = 0;
  // `label` builds the activity name; it runs only for a violation, so a
  // sound run concatenates no strings.
  const auto check = [&](std::int64_t simulated, std::int64_t bound,
                         const auto& label) {
    if (simulated > bound) {
      result.bound_violations.push_back(BoundViolation{label(), simulated, bound});
      ++added;
    }
  };

  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    check(result.process_completion[pi],
          util::sat_add(analysis.process_offsets[pi], analysis.process_response[pi]),
          [&] { return "process " + app.processes()[pi].name; });
  }
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    check(result.message_delivery[mi], analysis.message_delivery[mi],
          [&] { return "message " + app.messages()[mi].name; });
  }
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    check(result.graph_response[gi], analysis.graph_response[gi],
          [&] { return "graph " + app.graphs()[gi].name; });
  }
  check(result.max_out_can, analysis.buffers.out_can,
        [] { return std::string("buffer OutCAN"); });
  check(result.max_out_ttp, analysis.buffers.out_ttp,
        [] { return std::string("buffer OutTTP"); });
  for (const auto& [node, bytes] : result.max_out_node) {
    const auto it = analysis.buffers.out_node.find(node);
    const std::int64_t bound =
        it == analysis.buffers.out_node.end() ? 0 : it->second;
    check(bytes, bound,
          [n = node.index()] { return "buffer OutN" + std::to_string(n); });
  }
  return added;
}

}  // namespace mcs::sim

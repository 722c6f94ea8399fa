#include "mcs/sched/list_scheduler.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "mcs/model/process_graph.hpp"
#include "mcs/util/math.hpp"

namespace mcs::sched {

namespace {

using util::GraphId;

/// Bytes already packed into the frame of each round occurrence of one
/// slot, indexed by occurrence (grown on demand; unused occurrences are 0).
using SlotLoad = std::vector<std::int64_t>;

[[nodiscard]] std::int64_t& load_at(SlotLoad& load, std::int64_t occurrence) {
  const auto k = static_cast<std::size_t>(occurrence);
  if (k >= load.size()) load.resize(k + 1, 0);
  return load[k];
}

/// Finds the placement of a message of `bytes` in `slot`, starting no
/// earlier than `earliest`, given the slot's frame loads; updates them.
MessageSlotAssignment place_message(const arch::TdmaRound& tdma, std::size_t slot,
                                    Time earliest, std::int64_t bytes,
                                    SlotLoad& load) {
  const std::int64_t capacity = tdma.slot_capacity(slot);
  if (capacity <= 0) {
    throw std::invalid_argument("place_message: slot has zero payload capacity");
  }
  const Time round_len = tdma.round_length();
  const Time offset = tdma.slot_offset(slot);
  // Occurrence index of the first occurrence starting at or after
  // `earliest`: occurrence k starts at k*round_len + offset.
  std::int64_t k = 0;
  if (earliest > offset) k = util::ceil_div(earliest - offset, round_len);

  // Walk occurrences until the message fits (possibly spanning several
  // consecutive occurrences when larger than one frame).
  for (;; ++k) {
    const std::int64_t free0 = capacity - load_at(load, k);
    if (free0 <= 0) continue;
    if (bytes <= free0) {
      load_at(load, k) += bytes;
      MessageSlotAssignment a;
      a.slot_index = slot;
      a.first_round = k;
      a.rounds = 1;
      a.tx_start = k * round_len + offset;
      a.delivery = a.tx_start + tdma.slot(slot).length;
      return a;
    }
    // Multi-frame message: it must start in an empty occurrence and use
    // full frames; partially sharing the first frame would reorder bytes
    // relative to other packed messages.
    if (load_at(load, k) == 0) {
      const std::int64_t rounds = util::ceil_div(bytes, capacity);
      bool all_free = true;
      for (std::int64_t r = 1; r < rounds; ++r) {
        if (load_at(load, k + r) != 0) {
          all_free = false;
          break;
        }
      }
      if (!all_free) continue;
      for (std::int64_t r = 0; r < rounds; ++r) {
        const std::int64_t chunk = std::min<std::int64_t>(capacity, bytes - r * capacity);
        load_at(load, k + r) += chunk;
      }
      MessageSlotAssignment a;
      a.slot_index = slot;
      a.first_round = k;
      a.rounds = rounds;
      a.tx_start = k * round_len + offset;
      a.delivery = (k + rounds - 1) * round_len + offset + tdma.slot(slot).length;
      return a;
    }
  }
}

}  // namespace

ScheduleConstraints ScheduleConstraints::none(const Application& app) {
  ScheduleConstraints c;
  c.process_release.assign(app.num_processes(), 0);
  c.message_tx.assign(app.num_messages(), 0);
  return c;
}

Time ScheduleConstraints::process_lb(ProcessId p) const {
  return process_release.empty() ? 0 : process_release.at(p.index());
}

Time ScheduleConstraints::message_lb(MessageId m) const {
  return message_tx.empty() ? 0 : message_tx.at(m.index());
}

std::vector<Time> critical_path_priorities(const Application& app) {
  std::vector<Time> cp(app.num_processes(), 0);
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const GraphId g(static_cast<GraphId::underlying_type>(gi));
    const auto lp = model::longest_path_from(app, g);
    const auto& procs = app.graph(g).processes;
    for (std::size_t i = 0; i < procs.size(); ++i) cp[procs[i].index()] = lp[i];
  }
  return cp;
}

TtcSchedule list_schedule(const Application& app, const arch::Platform& platform,
                          const arch::TdmaRound& tdma,
                          const ScheduleConstraints& constraints,
                          const std::vector<Time>& cp) {
  TtcSchedule out;
  out.process_start.assign(app.num_processes(), 0);
  out.message_slot.assign(app.num_messages(), std::nullopt);

  // Only TT processes are scheduled here.  A TT process becomes ready when
  // every predecessor constraint is resolved: TT predecessors must have
  // been scheduled (their finish / message delivery is known); ET
  // predecessors contribute through `constraints.process_release` (the
  // MultiClusterScheduling fixed point supplies worst-case deliveries).
  std::vector<std::size_t> unresolved(app.num_processes(), 0);
  std::vector<bool> is_tt_proc(app.num_processes(), false);
  std::vector<Time> release(app.num_processes(), 0);
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    const model::Process& proc = app.process(p);
    if (!platform.is_tt(proc.node)) continue;
    is_tt_proc[pi] = true;
    release[pi] = constraints.process_lb(p);
    std::size_t n = 0;
    for (const ProcessId pred : proc.predecessors) {
      if (platform.is_tt(app.process(pred).node)) ++n;
    }
    unresolved[pi] = n;
  }

  // Ready heap: the root is the longest critical path, ties by lowest id.
  const auto after = [&cp](ProcessId a, ProcessId b) {
    if (cp[a.index()] != cp[b.index()]) return cp[a.index()] < cp[b.index()];
    return b < a;
  };
  std::vector<ProcessId> ready;
  const auto make_ready = [&](ProcessId p) {
    ready.push_back(p);
    std::push_heap(ready.begin(), ready.end(), after);
  };
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    if (is_tt_proc[pi] && unresolved[pi] == 0) {
      make_ready(ProcessId(static_cast<ProcessId::underlying_type>(pi)));
    }
  }

  std::vector<Time> node_free(platform.num_nodes(), 0);
  std::vector<SlotLoad> frame_load(tdma.num_slots());
  std::vector<Time> finish(app.num_processes(), 0);
  std::size_t scheduled = 0;

  auto resolve_successor = [&](ProcessId succ) {
    if (!is_tt_proc[succ.index()]) return;
    if (--unresolved[succ.index()] == 0) make_ready(succ);
  };

  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), after);
    const ProcessId p = ready.back();
    ready.pop_back();
    const model::Process& proc = app.process(p);
    Time& free_at = node_free[proc.node.index()];

    const Time start = std::max(release[p.index()], free_at);
    out.process_start[p.index()] = start;
    finish[p.index()] = start + proc.wcet;
    free_at = finish[p.index()];
    out.makespan = std::max(out.makespan, finish[p.index()]);
    ++scheduled;

    // Pure precedence arcs to same-cluster successors.
    for (const ProcessId succ : proc.successors) {
      // Message-carried arcs are handled below; a successor connected by
      // both kinds still ends up with the max of the lower bounds.
      release[succ.index()] = std::max(release[succ.index()], finish[p.index()]);
    }
    // Outgoing messages: place remote ones on the TTP bus.
    for (const MessageId mid : proc.out_messages) {
      const model::Message& msg = app.message(mid);
      const NodeId dst_node = app.process(msg.dst).node;
      if (dst_node == proc.node) {
        // Local: receiver can start right after the sender.
        release[msg.dst.index()] =
            std::max(release[msg.dst.index()], finish[p.index()]);
      } else {
        if (!tdma.owns_slot(proc.node)) {
          out.feasible = false;
          out.problems.push_back("node '" + platform.node(proc.node).name +
                                 "' sends message '" + msg.name +
                                 "' but owns no TDMA slot");
          continue;
        }
        const Time earliest =
            std::max(finish[p.index()], constraints.message_lb(mid));
        const std::size_t slot = tdma.slot_of(proc.node);
        const auto assignment = place_message(tdma, slot, earliest,
                                              msg.size_bytes, frame_load[slot]);
        out.message_slot[mid.index()] = assignment;
        out.makespan = std::max(out.makespan, assignment.delivery);
        if (platform.is_tt(dst_node)) {
          release[msg.dst.index()] =
              std::max(release[msg.dst.index()], assignment.delivery);
        }
        // TT->ET: the delivery instant becomes the message offset on the
        // CAN side; nothing to do here (the analysis reads message_slot).
      }
      resolve_successor(msg.dst);
    }
    // Dependencies without a message.  Each successor entry corresponds to
    // exactly one arc; message-carried arcs were resolved above, so here we
    // resolve the remaining (pure-precedence) arcs, handling the corner
    // case of parallel arcs (message + explicit dependency) correctly: the
    // first k entries for a successor that k messages go to are the
    // message arcs.
    const auto& succs = proc.successors;
    for (auto it = succs.begin(); it != succs.end(); ++it) {
      const ProcessId succ = *it;
      const auto earlier = std::count(succs.begin(), it, succ);
      const auto messages =
          std::count_if(proc.out_messages.begin(), proc.out_messages.end(),
                        [&](MessageId m) { return app.message(m).dst == succ; });
      if (earlier < messages) continue;  // a message arc, already resolved
      resolve_successor(succ);
    }
  }

  // All TT processes must have been placed (otherwise a dependency cycle
  // or an arc from an unscheduled predecessor remained).
  std::size_t tt_count = 0;
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    if (is_tt_proc[pi]) ++tt_count;
  }
  if (scheduled != tt_count) {
    out.feasible = false;
    out.problems.push_back("list_schedule: not all TT processes could be scheduled "
                           "(dependency cycle?)");
  }
  return out;
}

std::vector<Time> recommended_slot_lengths(const Application& app,
                                           const arch::Platform& platform,
                                           NodeId node, std::size_t max_candidates) {
  // Candidate lengths: enough for each distinct outgoing message size, for
  // the largest message, and for packing the two/all largest together.
  std::vector<std::int64_t> sizes;
  const bool gateway = platform.has_gateway() && platform.gateway() == node;
  for (const model::Message& m : app.messages()) {
    const NodeId src = app.process(m.src).node;
    const NodeId dst = app.process(m.dst).node;
    if (src == dst) continue;
    if (gateway) {
      if (platform.is_et(src) && platform.is_tt(dst)) sizes.push_back(m.size_bytes);
    } else if (src == node) {
      sizes.push_back(m.size_bytes);
    }
  }
  if (sizes.empty()) return {platform.ttp().length_for_bytes(1)};

  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  std::set<std::int64_t> byte_candidates;
  byte_candidates.insert(sizes.front());           // largest single message
  std::int64_t prefix = 0;
  for (const std::int64_t s : sizes) {             // largest k packed together
    prefix += s;
    byte_candidates.insert(prefix);
  }
  for (const std::int64_t s : sizes) byte_candidates.insert(s);

  std::vector<Time> lengths;
  for (const std::int64_t b : byte_candidates) {
    lengths.push_back(platform.ttp().length_for_bytes(b));
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  if (lengths.size() > max_candidates) {
    // Keep the smallest, the largest and an even spread in between.
    std::vector<Time> kept;
    const double step = static_cast<double>(lengths.size() - 1) /
                        static_cast<double>(max_candidates - 1);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      kept.push_back(lengths[static_cast<std::size_t>(static_cast<double>(i) * step)]);
    }
    kept.back() = lengths.back();
    lengths = std::move(kept);
    lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  }
  return lengths;
}

}  // namespace mcs::sched

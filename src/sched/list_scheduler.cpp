#include "mcs/sched/list_scheduler.hpp"

#include <algorithm>
#include <limits>
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

ListProgram::ListProgram(const Application& app, const arch::Platform& platform,
                         const std::vector<Time>& cp)
    : app_(&app), platform_(&platform) {
  // Only TT processes are scheduled here.  A TT process becomes ready when
  // every TT predecessor has been placed (its finish / message delivery is
  // known); ET predecessors contribute through the process_release
  // constraints.  Replaying the ready heap once yields the order every run
  // places processes in.
  const std::size_t np = app.num_processes();
  std::vector<std::uint8_t> is_tt(np, 0);
  std::vector<std::size_t> unresolved(np, 0);
  for (std::size_t pi = 0; pi < np; ++pi) {
    const model::Process& proc = app.processes()[pi];
    if (!platform.is_tt(proc.node)) continue;
    is_tt[pi] = 1;
    ++tt_count_;
    unresolved[pi] = static_cast<std::size_t>(
        std::ranges::count_if(proc.predecessors, [&](ProcessId pred) {
          return platform.is_tt(app.process(pred).node);
        }));
  }

  steps_.reserve(tt_count_);

  // Ready heap: the root is the longest critical path, ties by lowest id.
  const auto after = [&cp](ProcessId a, ProcessId b) {
    if (cp[a.index()] != cp[b.index()]) return cp[a.index()] < cp[b.index()];
    return b < a;
  };
  std::vector<ProcessId> ready;
  const auto make_ready = [&](ProcessId p) {
    ready.push_back(p);
    std::ranges::push_heap(ready, after);
  };
  for (std::size_t pi = 0; pi < np; ++pi) {
    if (is_tt[pi] != 0 && unresolved[pi] == 0) {
      make_ready(ProcessId(static_cast<ProcessId::underlying_type>(pi)));
    }
  }

  while (!ready.empty()) {
    std::ranges::pop_heap(ready, after);
    const ProcessId p = ready.back();
    ready.pop_back();
    const model::Process& proc = app.process(p);
    Step step{static_cast<std::uint32_t>(p.index()),
              static_cast<std::uint32_t>(proc.node.index()),
              proc.wcet,
              static_cast<std::uint32_t>(succs_.size()),
              0,
              static_cast<std::uint32_t>(outs_.size()),
              0};
    // Every arc (message-carried or pure precedence) resolves one
    // predecessor entry of its successor.
    for (const ProcessId succ : proc.successors) {
      if (is_tt[succ.index()] == 0) continue;
      const auto s = static_cast<std::uint32_t>(succ.index());
      if (std::find(succs_.begin() + step.succ_begin, succs_.end(), s) == succs_.end()) {
        succs_.push_back(s);
      }
      if (--unresolved[succ.index()] == 0) make_ready(succ);
    }
    for (const MessageId mid : proc.out_messages) {
      const model::Message& msg = app.message(mid);
      if (app.process(msg.dst).node == proc.node) continue;  // local
      outs_.push_back({static_cast<std::uint32_t>(mid.index()),
                       static_cast<std::uint32_t>(msg.dst.index()),
                       is_tt[msg.dst.index()] != 0, msg.size_bytes});
    }
    step.succ_end = static_cast<std::uint32_t>(succs_.size());
    step.out_end = static_cast<std::uint32_t>(outs_.size());
    steps_.push_back(step);
  }

  release_.assign(np, 0);
  blocked_.assign(np, 0);
}

void ListProgram::run(const arch::TdmaRound& tdma,
                      const ScheduleConstraints& constraints, TtcSchedule& out) {
  const Application& app = *app_;
  out.process_start.assign(app.num_processes(), 0);
  out.message_slot.assign(app.num_messages(), std::nullopt);
  out.makespan = 0;
  out.feasible = true;
  out.problems.clear();

  constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
  slot_of_node_.assign(platform_->num_nodes(), kNoSlot);
  for (std::size_t i = 0; i < tdma.num_slots(); ++i) {
    const std::size_t owner = tdma.slot(i).owner.index();
    if (owner < slot_of_node_.size()) slot_of_node_[owner] = i;
  }
  frame_load_.resize(tdma.num_slots());
  for (SlotLoad& load : frame_load_) load.clear();
  node_free_.assign(platform_->num_nodes(), 0);
  for (const Step& step : steps_) {
    release_[step.pid] =
        constraints.process_lb(ProcessId(static_cast<ProcessId::underlying_type>(step.pid)));
    blocked_[step.pid] = 0;
  }

  std::size_t scheduled = 0;
  for (const Step& step : steps_) {
    if (blocked_[step.pid] != 0) {
      // Never ready: nothing downstream of it is either.
      for (std::uint32_t s = step.succ_begin; s < step.succ_end; ++s) {
        blocked_[succs_[s]] = 1;
      }
      continue;
    }
    Time& free_at = node_free_[step.node];
    const Time start = std::max(release_[step.pid], free_at);
    const Time finish = start + step.wcet;
    out.process_start[step.pid] = start;
    free_at = finish;
    out.makespan = std::max(out.makespan, finish);
    ++scheduled;

    // Same-cluster successors start after the sender finished; a remote
    // receiver additionally waits for the message delivery below.
    for (std::uint32_t s = step.succ_begin; s < step.succ_end; ++s) {
      release_[succs_[s]] = std::max(release_[succs_[s]], finish);
    }
    // Outgoing remote messages go on the TTP bus in the sender's slot.
    const std::size_t slot = slot_of_node_[step.node];
    for (std::uint32_t o = step.out_begin; o < step.out_end; ++o) {
      const Out& msg = outs_[o];
      const MessageId mid(static_cast<MessageId::underlying_type>(msg.message));
      if (slot == kNoSlot) {
        out.feasible = false;
        out.problems.push_back("node '" +
                               platform_->node(NodeId(static_cast<NodeId::underlying_type>(
                                                   step.node)))
                                   .name +
                               "' sends message '" + app.message(mid).name +
                               "' but owns no TDMA slot");
        if (msg.dst_tt) blocked_[msg.dst] = 1;
        continue;
      }
      const Time earliest = std::max(finish, constraints.message_lb(mid));
      const auto assignment =
          place_message(tdma, slot, earliest, msg.bytes, frame_load_[slot]);
      out.message_slot[msg.message] = assignment;
      out.makespan = std::max(out.makespan, assignment.delivery);
      // TT->ET: the delivery instant becomes the message offset on the
      // CAN side; the analysis reads it from message_slot.
      if (msg.dst_tt) {
        release_[msg.dst] = std::max(release_[msg.dst], assignment.delivery);
      }
    }
  }

  // All TT processes must have been placed (otherwise a sender without a
  // slot, a dependency cycle or an arc from an unscheduled predecessor
  // held some back).
  if (scheduled != tt_count_) {
    out.feasible = false;
    out.problems.push_back("list_schedule: not all TT processes could be scheduled "
                           "(dependency cycle?)");
  }
}

TtcSchedule list_schedule(const Application& app, const arch::Platform& platform,
                          const arch::TdmaRound& tdma,
                          const ScheduleConstraints& constraints,
                          const std::vector<Time>& cp) {
  TtcSchedule out;
  ListProgram(app, platform, cp).run(tdma, constraints, out);
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

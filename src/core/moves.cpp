#include "mcs/core/moves.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "mcs/core/analysis_types.hpp"
#include "mcs/sched/list_scheduler.hpp"

namespace mcs::core {

using model::Application;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

Candidate Candidate::initial(const Application& app, const arch::Platform& platform) {
  Candidate c{default_tdma_round(app, platform), {}, {}, {}};
  c.process_priorities.resize(app.num_processes());
  for (std::size_t i = 0; i < c.process_priorities.size(); ++i) {
    c.process_priorities[i] = static_cast<Priority>(i);
  }
  c.message_priorities.resize(app.num_messages());
  for (std::size_t i = 0; i < c.message_priorities.size(); ++i) {
    c.message_priorities[i] = static_cast<Priority>(i);
  }
  c.pins = sched::ScheduleConstraints::none(app);
  return c;
}

SystemConfig Candidate::to_config(const Application& app) const {
  SystemConfig cfg(app, tdma);
  for (std::size_t i = 0; i < process_priorities.size(); ++i) {
    cfg.set_process_priority(ProcessId(static_cast<ProcessId::underlying_type>(i)),
                             process_priorities[i]);
  }
  for (std::size_t i = 0; i < message_priorities.size(); ++i) {
    cfg.set_message_priority(MessageId(static_cast<MessageId::underlying_type>(i)),
                             message_priorities[i]);
  }
  return cfg;
}

std::string to_string(const Move& move) {
  std::ostringstream os;
  std::visit(
      [&os](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ShiftProcessMove>) {
          os << "shift P" << m.process.value() << " to " << m.release;
        } else if constexpr (std::is_same_v<T, ShiftMessageMove>) {
          os << "shift m" << m.message.value() << " tx to " << m.tx;
        } else if constexpr (std::is_same_v<T, SwapProcessPrioritiesMove>) {
          os << "swap prio P" << m.a.value() << " <-> P" << m.b.value();
        } else if constexpr (std::is_same_v<T, SwapMessagePrioritiesMove>) {
          os << "swap prio m" << m.a.value() << " <-> m" << m.b.value();
        } else if constexpr (std::is_same_v<T, ResizeSlotMove>) {
          os << "resize slot " << m.slot << " to " << m.new_length;
        } else {
          os << "swap slots " << m.a << " <-> " << m.b;
        }
      },
      move);
  return os.str();
}

MoveContext::MoveContext(const Application& app, const arch::Platform& platform,
                         McsOptions mcs_options)
    : app_(app),
      platform_(platform),
      mcs_options_(mcs_options),
      workspace_(app, platform),
      slot_lengths_by_node_(platform.num_nodes()) {
  // Incremental evaluation is an internal policy of the owned workspace:
  // delta results are bit-identical to cold ones by construction, so an
  // Evaluation never depends on which evaluations ran before it.
  workspace_.set_delta_mode(delta_mode_from_env());
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    if (platform.is_et(app.process(p).node)) {
      et_processes_.push_back(p);
    } else {
      tt_processes_.push_back(p);
    }
  }
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const MessageRoute route = workspace_.routes()[mi];
    if (route == MessageRoute::TtToTt || route == MessageRoute::TtToEt) {
      tt_messages_.push_back(MessageId(static_cast<MessageId::underlying_type>(mi)));
    }
  }
  for (const NodeId n : platform.ttp_slot_owners()) {
    slot_lengths_by_node_[n.index()] =
        sched::recommended_slot_lengths(app, platform, n);
  }
}

const std::vector<Time>& MoveContext::slot_lengths(NodeId owner) const {
  return slot_lengths_by_node_.at(owner.index());
}

Evaluation MoveContext::evaluate(const Candidate& candidate) const {
  SystemConfig cfg = candidate.to_config(app_);
  return adopt(multi_cluster_scheduling(app_, platform_, cfg, candidate.pins,
                                        mcs_options_, workspace_));
}

Evaluation MoveContext::adopt(McsResult mcs) const {
  Evaluation eval;
  eval.mcs = std::move(mcs);
  eval.delta = degree_of_schedulability(app_, eval.mcs.analysis);
  eval.s_total = eval.mcs.analysis.buffers.total();
  eval.schedulable = eval.mcs.schedulable(app_);
  return eval;
}

bool MoveContext::apply(const Move& move, Candidate& candidate) const {
  return std::visit(
      [&](const auto& m) -> bool {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ShiftProcessMove>) {
          Time& pin = candidate.pins.process_release.at(m.process.index());
          if (pin == m.release) return false;
          pin = m.release;
          return true;
        } else if constexpr (std::is_same_v<T, ShiftMessageMove>) {
          Time& pin = candidate.pins.message_tx.at(m.message.index());
          if (pin == m.tx) return false;
          pin = m.tx;
          return true;
        } else if constexpr (std::is_same_v<T, SwapProcessPrioritiesMove>) {
          if (m.a == m.b) return false;
          std::swap(candidate.process_priorities.at(m.a.index()),
                    candidate.process_priorities.at(m.b.index()));
          return true;
        } else if constexpr (std::is_same_v<T, SwapMessagePrioritiesMove>) {
          if (m.a == m.b) return false;
          std::swap(candidate.message_priorities.at(m.a.index()),
                    candidate.message_priorities.at(m.b.index()));
          return true;
        } else if constexpr (std::is_same_v<T, ResizeSlotMove>) {
          if (candidate.tdma.slot(m.slot).length == m.new_length) return false;
          candidate.tdma = candidate.tdma.with_slot_length(m.slot, m.new_length);
          return true;
        } else {
          if (m.a == m.b) return false;
          candidate.tdma = candidate.tdma.with_swapped_slots(m.a, m.b);
          return true;
        }
      },
      move);
}

sched::MobilityWindows MoveContext::mobility(const Evaluation& eval) const {
  // Current communication latencies: delivery minus sender completion.
  std::vector<Time> latency(app_.num_messages(), 0);
  const auto& a = eval.mcs.analysis;
  for (std::size_t mi = 0; mi < app_.num_messages(); ++mi) {
    const auto& m = app_.messages()[mi];
    const Time sender_done =
        a.process_offsets[m.src.index()] + a.process_response[m.src.index()];
    latency[mi] = std::max<Time>(0, a.message_delivery[mi] - sender_done);
  }
  return sched::mobility_windows(app_, platform_, latency);
}

std::vector<Move> MoveContext::generate_neighbors(const Candidate& current,
                                                  const Evaluation& eval,
                                                  std::size_t max_moves) const {
  std::vector<Move> moves;

  // Priority swaps between adjacent-priority activities sharing a resource:
  // the smallest perturbations with the best chance to stay schedulable.
  auto add_process_swaps = [&] {
    for (std::size_t i = 0; i < et_processes_.size(); ++i) {
      for (std::size_t j = i + 1; j < et_processes_.size(); ++j) {
        const ProcessId a = et_processes_[i];
        const ProcessId b = et_processes_[j];
        if (app_.process(a).node != app_.process(b).node) continue;
        moves.push_back(SwapProcessPrioritiesMove{a, b});
      }
    }
  };
  auto add_message_swaps = [&] {
    for (std::size_t i = 0; i < can_messages().size(); ++i) {
      for (std::size_t j = i + 1; j < can_messages().size(); ++j) {
        moves.push_back(SwapMessagePrioritiesMove{can_messages()[i], can_messages()[j]});
      }
    }
  };

  // TTC shifts: move processes/messages later inside their mobility window
  // (delaying a TTP message can empty a gateway queue earlier; delaying a
  // process can compact the OutCAN backlog).
  auto add_shifts = [&] {
    const auto windows = mobility(eval);
    for (const ProcessId p : tt_processes_) {
      const Time asap = windows.asap[p.index()];
      const Time alap = windows.alap[p.index()];
      if (alap <= asap) continue;
      const Time mid = asap + (alap - asap) / 2;
      const Time current_pin = current.pins.process_release[p.index()];
      for (const Time target : {mid, alap}) {
        if (target != current_pin) moves.push_back(ShiftProcessMove{p, target});
      }
      if (current_pin != 0) moves.push_back(ShiftProcessMove{p, 0});
    }
    const Time round = current.tdma.round_length();
    for (const MessageId m : tt_messages_) {
      const auto& slot = eval.mcs.schedule.message_slot[m.index()];
      if (!slot) continue;
      const Time current_pin = current.pins.message_tx[m.index()];
      // Try the next one/two later round occurrences.
      moves.push_back(ShiftMessageMove{m, slot->tx_start + round});
      moves.push_back(ShiftMessageMove{m, slot->tx_start + 2 * round});
      if (current_pin != 0) moves.push_back(ShiftMessageMove{m, 0});
    }
  };

  // Slot resizes to the recommended lengths; slot swaps (all pairs).
  auto add_slot_moves = [&] {
    for (std::size_t i = 0; i < current.tdma.num_slots(); ++i) {
      for (const Time len : slot_lengths(current.tdma.slot(i).owner)) {
        if (len != current.tdma.slot(i).length) {
          moves.push_back(ResizeSlotMove{i, len});
        }
      }
      for (std::size_t j = i + 1; j < current.tdma.num_slots(); ++j) {
        moves.push_back(SwapSlotsMove{i, j});
      }
    }
  };

  add_shifts();
  add_slot_moves();
  add_process_swaps();
  add_message_swaps();

  if (moves.size() > max_moves) moves.resize(max_moves);
  return moves;
}

Move MoveContext::random_move(const Candidate& current, const Evaluation& eval,
                              util::Rng& rng) const {
  // Weighted pick among applicable move kinds.
  for (int attempt = 0; attempt < 64; ++attempt) {
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // shift process
        if (tt_processes_.empty()) break;
        const ProcessId p = tt_processes_[rng.index(tt_processes_.size())];
        const auto windows = mobility(eval);
        const Time asap = windows.asap[p.index()];
        const Time alap = windows.alap[p.index()];
        if (alap <= asap) break;
        return ShiftProcessMove{p, rng.uniform_int(asap, alap)};
      }
      case 1: {  // shift message by whole rounds
        if (tt_messages_.empty()) break;
        const MessageId m = tt_messages_[rng.index(tt_messages_.size())];
        const auto& slot = eval.mcs.schedule.message_slot[m.index()];
        if (!slot) break;
        const Time rounds = rng.uniform_int(0, 3);
        return ShiftMessageMove{m, slot->tx_start + rounds * current.tdma.round_length()};
      }
      case 2: {  // swap process priorities (same node)
        if (et_processes_.size() < 2) break;
        const ProcessId a = et_processes_[rng.index(et_processes_.size())];
        const ProcessId b = et_processes_[rng.index(et_processes_.size())];
        if (a == b || app_.process(a).node != app_.process(b).node) break;
        return SwapProcessPrioritiesMove{a, b};
      }
      case 3: {  // swap message priorities
        if (can_messages().size() < 2) break;
        const MessageId a = can_messages()[rng.index(can_messages().size())];
        const MessageId b = can_messages()[rng.index(can_messages().size())];
        if (a == b) break;
        return SwapMessagePrioritiesMove{a, b};
      }
      case 4: {  // resize slot
        const std::size_t slot = rng.index(current.tdma.num_slots());
        const auto& lengths = slot_lengths(current.tdma.slot(slot).owner);
        if (lengths.empty()) break;
        const Time len = lengths[rng.index(lengths.size())];
        if (len == current.tdma.slot(slot).length) break;
        return ResizeSlotMove{slot, len};
      }
      case 5: {  // swap slots
        if (current.tdma.num_slots() < 2) break;
        const std::size_t a = rng.index(current.tdma.num_slots());
        const std::size_t b = rng.index(current.tdma.num_slots());
        if (a == b) break;
        return SwapSlotsMove{a, b};
      }
      default:
        break;
    }
  }
  // Degenerate design space: fall back to a no-op priority swap.
  if (can_messages().size() >= 2) {
    return SwapMessagePrioritiesMove{can_messages()[0], can_messages()[1]};
  }
  if (current.tdma.num_slots() >= 2) return SwapSlotsMove{0, 1};
  throw std::logic_error("random_move: design space has no moves");
}

}  // namespace mcs::core

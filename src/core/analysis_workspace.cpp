#include "mcs/core/analysis_workspace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "mcs/util/hash.hpp"
#include "mcs/util/math.hpp"

namespace mcs::core {

using model::Application;
using util::GraphId;
using util::MessageId;
using util::ProcessId;
using util::Time;

DeltaMode delta_mode_from_env() noexcept {
  if (const char* check = std::getenv("MCS_DELTA_CHECK")) {
    if (std::strcmp(check, "0") != 0 && std::strcmp(check, "off") != 0) {
      return DeltaMode::Check;
    }
  }
  if (const char* delta = std::getenv("MCS_DELTA")) {
    if (std::strcmp(delta, "0") == 0 || std::strcmp(delta, "off") == 0) {
      return DeltaMode::Off;
    }
  }
  return DeltaMode::On;
}

AnalysisKernel kernel_from_env() noexcept {
  const char* kernel = std::getenv("MCS_KERNEL");
  return kernel != nullptr && std::strcmp(kernel, "reference") == 0
             ? AnalysisKernel::Reference
             : AnalysisKernel::Packed;
}

AnalysisWorkspace::AnalysisWorkspace(const Application& app,
                                     const arch::Platform& platform)
    : app_(&app),
      platform_(&platform),
      owned_reach_(std::make_unique<model::ReachabilityIndex>(app)) {
  reach_ = owned_reach_.get();
  build();
}

AnalysisWorkspace::AnalysisWorkspace(const Application& app,
                                     const arch::Platform& platform,
                                     const model::ReachabilityIndex& reachability)
    : app_(&app), platform_(&platform), reach_(&reachability) {
  build();
}

void AnalysisWorkspace::build() {
  const Application& app = *app_;
  const arch::Platform& platform = *platform_;

  routes_.resize(app.num_messages());
  can_tx_.assign(app.num_messages(), 0);
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const MessageId m(static_cast<MessageId::underlying_type>(mi));
    routes_[mi] = classify_route(app, platform, m);
    switch (routes_[mi]) {
      case MessageRoute::EtToEt:
      case MessageRoute::EtToTt:
      case MessageRoute::TtToEt:
        can_tx_[mi] = platform.can().tx_time(app.message(m).size_bytes);
        can_messages_.push_back(m);
        if (routes_[mi] == MessageRoute::EtToTt) et_to_tt_.push_back(m);
        if (routes_[mi] == MessageRoute::TtToEt) tt_to_et_.push_back(m);
        break;
      default:
        break;
    }
  }

  // ETC processes per node index (dense over all nodes): one pool each.
  std::vector<std::vector<ProcessId>> et_procs_by_node(platform.num_nodes());
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    const model::Process& proc = app.process(p);
    if (platform.is_et(proc.node)) {
      et_procs_by_node[proc.node.index()].push_back(p);
    }
  }

  out_ni_by_node_.resize(platform.num_nodes());
  for (const MessageId m : can_messages_) {
    const MessageRoute route = routes_[m.index()];
    if (route != MessageRoute::EtToEt && route != MessageRoute::EtToTt) continue;
    out_ni_by_node_[app.process(app.message(m).src).node.index()].push_back(m);
  }

  topo_.reserve(app.num_graphs());
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    topo_.push_back(model::topological_order(
        app, GraphId(static_cast<GraphId::underlying_type>(gi))));
  }

  has_gateway_ = platform.has_gateway();
  if (has_gateway_) gateway_ = platform.gateway();
  r_transfer_ = platform.gateway_transfer().wcet;

  Time max_period = 0;
  for (const auto& g : app.graphs()) max_period = std::max(max_period, g.period);
  cap_ = util::sat_add(util::sat_mul(4, app.hyper_period()), max_period);

  empty_ttc_.process_start.assign(app.num_processes(), 0);
  empty_ttc_.message_slot.assign(app.num_messages(), std::nullopt);

  // Structure-of-arrays pools for the quadratic recurrence passes.  Pool
  // order matches the scalar reference iteration order exactly (bit-for-bit
  // Gauss-Seidel equivalence depends on it).  Pair classes bake the static
  // parts of the pruning predicates (graph membership, reachability,
  // periods, shared sender) into one byte per ordered pair.
  std::size_t max_pool = can_messages_.size();
  for (const auto& procs : et_procs_by_node) {
    if (procs.empty()) continue;
    ProcPool pool;
    pool.node = app.process(procs.front()).node;
    pool.pids = procs;
    const std::size_t n = procs.size();
    pool.wcet.resize(n);
    pool.period.resize(n);
    pool.pair.assign(n * n, kPairWindow);
    for (std::size_t x = 0; x < n; ++x) {
      pool.wcet[x] = app.process(procs[x]).wcet;
      pool.period[x] = app.period_of(procs[x]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const ProcessId pi = procs[i];
        const ProcessId pj = procs[j];
        std::uint8_t cls = kPairWindow;
        if (app.process(pj).graph == app.process(pi).graph &&
            reach_->related(pj, pi)) {
          cls = kPairPruned;
        } else if (pool.period[j] != pool.period[i]) {
          cls = kPairAlways;
        }
        pool.pair[i * n + j] = cls;
      }
    }
    max_pool = std::max(max_pool, n);
    proc_pools_.push_back(std::move(pool));
  }

  {
    const std::size_t n = can_messages_.size();
    can_pool_.mids = can_messages_;
    can_pool_.tx.resize(n);
    can_pool_.period.resize(n);
    can_pool_.is_et_to_tt.resize(n);
    can_pool_.interfere.assign(n * n, kPairWindow);
    can_pool_.block.assign(n * n, kPairWindow);
    const auto related = [&](MessageId a, MessageId b) {
      const model::Message& ma = app.message(a);
      const model::Message& mb = app.message(b);
      return reach_->reaches(ma.dst, mb.src) || reach_->reaches(mb.dst, ma.src);
    };
    can_pool_.index.assign(app.num_messages(),
                           std::numeric_limits<std::size_t>::max());
    for (std::size_t x = 0; x < n; ++x) {
      const MessageId m = can_messages_[x];
      can_pool_.tx[x] = can_tx_[m.index()];
      can_pool_.period[x] = app.period_of(m);
      can_pool_.is_et_to_tt[x] = routes_[m.index()] == MessageRoute::EtToTt;
      can_pool_.index[m.index()] = x;
    }
    for (std::size_t mi = 0; mi < n; ++mi) {
      for (std::size_t ji = 0; ji < n; ++ji) {
        if (mi == ji) continue;
        const MessageId m = can_messages_[mi];
        const MessageId j = can_messages_[ji];
        const bool same_graph = app.message(m).graph == app.message(j).graph;
        const bool fixed_phase = can_pool_.period[mi] == can_pool_.period[ji];
        std::uint8_t interfere = kPairWindow;
        if (same_graph && related(j, m)) {
          interfere = kPairPruned;
        } else if (!fixed_phase) {
          interfere = kPairAlways;
        }
        can_pool_.interfere[mi * n + ji] = interfere;
        std::uint8_t block = kPairWindow;
        if (app.message(j).src == app.message(m).src) {
          block = kPairPruned;
        } else if (same_graph && related(j, m)) {
          block = kPairPruned;
        } else if (!fixed_phase) {
          block = kPairAlways;
        }
        can_pool_.block[mi * n + ji] = block;
      }
    }
    can_pool_.by_tx.resize(n);
    for (std::size_t x = 0; x < n; ++x) {
      can_pool_.by_tx[x] = static_cast<std::uint32_t>(x);
    }
    std::ranges::sort(can_pool_.by_tx, [&](std::uint32_t a, std::uint32_t b) {
      return can_pool_.tx[a] != can_pool_.tx[b] ? can_pool_.tx[a] > can_pool_.tx[b] : a < b;
    });
  }

  ttp_pool_.mids = et_to_tt_;
  for (const MessageId m : et_to_tt_) {
    ttp_pool_.size.push_back(app.message(m).size_bytes);
    ttp_pool_.tx.push_back(can_tx_[m.index()]);
    ttp_pool_.period.push_back(app.period_of(m));
    ttp_pool_.can.push_back(can_pool_.index[m.index()]);
  }

  packed_scratch_.o.resize(max_pool);
  packed_scratch_.e.resize(max_pool);
  packed_scratch_.j.resize(max_pool);
  packed_scratch_.w.resize(max_pool);
  packed_scratch_.r.resize(max_pool);
  packed_scratch_.d.resize(max_pool);
  packed_scratch_.wait.resize(max_pool);
  packed_scratch_.prio.resize(max_pool);
  packed_scratch_.key.resize(std::max(max_pool, kTtpKey));
  packed_scratch_.survivors.resize(max_pool);
  packed_scratch_.cand_a.resize(max_pool);
  packed_scratch_.cand_period.resize(max_pool);
  packed_scratch_.cand_cost.resize(max_pool);

  // Candidate-list caches: sized for their pools up front so the steady
  // state never allocates; built lazily by the kernels (valid = false).
  proc_cand_cache_.resize(proc_pools_.size());
  for (std::size_t pi = 0; pi < proc_pools_.size(); ++pi) {
    const std::size_t n = proc_pools_[pi].pids.size();
    proc_cand_cache_[pi].prio.resize(n);
    proc_cand_cache_[pi].list.resize(n * n);
    proc_cand_cache_[pi].always.resize(n * n);
    proc_cand_cache_[pi].len.resize(n);
  }
  {
    const std::size_t n = can_pool_.mids.size();
    can_cand_cache_.prio.resize(n);
    can_cand_cache_.list.resize(n * n);
    can_cand_cache_.always.resize(n * n);
    can_cand_cache_.len.resize(n);
    can_cand_cache_.blk_list.resize(n * n);
    can_cand_cache_.blk_always.resize(n * n);
    can_cand_cache_.blk_len.resize(n);
  }

  // Component record offsets inside a (MCS iteration, pass) slot.
  std::size_t offset = 0;
  for (const ProcPool& pool : proc_pools_) {
    record_layout_.pool.push_back(offset);
    offset += record_size(pool.pids.size(), pool.pids.size(), kPoolEntry, kPoolLeft);
  }
  record_layout_.can = offset;
  offset += record_size(can_messages_.size(), can_messages_.size(), kCanEntry, kCanLeft);
  record_layout_.ttp = offset;
  offset += record_size(et_to_tt_.size(), kTtpKey, kTtpEntry, kTtpLeft);
  record_layout_.slot_size = offset;

  compile_pass1();
}

void AnalysisWorkspace::compile_pass1() {
  const Application& app = *app_;
  const arch::Platform& platform = *platform_;
  const std::size_t np = app.num_processes();
  Pass1Program& prog = pass1_;
  prog.msg_src.reserve(app.num_messages());
  prog.msg_dst.reserve(app.num_messages());
  prog.arcs.reserve(app.num_messages());
  for (const model::Message& m : app.messages()) {
    prog.msg_src.push_back(static_cast<std::uint32_t>(m.src.index()));
    prog.msg_dst.push_back(static_cast<std::uint32_t>(m.dst.index()));
  }
  prog.ops.reserve(np);
  prog.outs.reserve(app.num_messages());
  for (const std::vector<ProcessId>& order : topo_) {
    for (const ProcessId pid : order) {
      const model::Process& p = app.process(pid);
      const bool tt = platform.is_tt(p.node);
      Pass1Program::Op op{static_cast<std::uint32_t>(pid.index()), tt, p.wcet,
                          static_cast<std::uint32_t>(prog.arcs.size()), 0,
                          static_cast<std::uint32_t>(prog.outs.size()), 0};
      if (!tt) {
        for (const MessageId mid : p.in_messages) {
          const model::Message& m = app.message(mid);
          const auto mi = static_cast<std::uint32_t>(mid.index());
          switch (routes_[mid.index()]) {
            case MessageRoute::Local:
              prog.arcs.push_back({Pass1Program::kFromSender,
                                   static_cast<std::uint32_t>(m.src.index()), mi,
                                   app.process(m.src).wcet});
              break;
            case MessageRoute::EtToEt:
              prog.arcs.push_back({Pass1Program::kFromCan, mi, mi, can_tx_[mid.index()]});
              break;
            default:
              // TT->ET: available at the end of the TTP slot (EtToTt /
              // TtToTt arcs never target an ET process).
              prog.arcs.push_back({Pass1Program::kFromOffset, mi, mi, 0});
              break;
          }
        }
        for (const ProcessId pred : p.predecessors) {
          const bool via_message = std::ranges::any_of(
              p.in_messages, [&](MessageId mid) { return app.message(mid).src == pred; });
          if (via_message) continue;
          prog.arcs.push_back({Pass1Program::kFromPredecessor,
                               static_cast<std::uint32_t>(pred.index()), 0,
                               app.process(pred).wcet});
        }
      }
      for (const MessageId mid : p.out_messages) {
        prog.outs.push_back(
            {routes_[mid.index()], static_cast<std::uint32_t>(mid.index())});
      }
      op.arcs_end = static_cast<std::uint32_t>(prog.arcs.size());
      op.outs_end = static_cast<std::uint32_t>(prog.outs.size());
      prog.ops.push_back(op);
    }
  }

  // Readers: each arc makes its receiving process a reader of the arc's
  // source process.  Pure-precedence readers go first: they also read the
  // predecessor's r, which pass 2 writes (mark_process).
  const auto source_of = [&](const Pass1Program::Arc& arc) -> std::uint32_t {
    return arc.kind == Pass1Program::kFromPredecessor ? arc.source
                                                      : prog.msg_src[arc.message];
  };
  std::vector<std::uint32_t> prec(np, 0);
  prog.reader_begin.assign(np + 1, 0);
  for (const Pass1Program::Arc& arc : prog.arcs) {
    ++prog.reader_begin[source_of(arc) + 1];
    if (arc.kind == Pass1Program::kFromPredecessor) ++prec[arc.source];
  }
  for (std::size_t p = 0; p < np; ++p) prog.reader_begin[p + 1] += prog.reader_begin[p];
  prog.prec_end.resize(np);
  std::vector<std::uint32_t> next(prog.reader_begin.begin(), prog.reader_begin.end() - 1);
  for (std::size_t p = 0; p < np; ++p) {
    prog.prec_end[p] = prog.reader_begin[p] + prec[p];
    prec[p] = prog.reader_begin[p];  // cursor of the pure-precedence readers
    next[p] = prog.prec_end[p];      // cursor of the others
  }
  prog.readers.resize(prog.arcs.size());
  for (const Pass1Program::Op& op : prog.ops) {
    for (std::uint32_t a = op.arcs_begin; a < op.arcs_end; ++a) {
      const Pass1Program::Arc& arc = prog.arcs[a];
      const std::uint32_t src = source_of(arc);
      std::uint32_t& at = arc.kind == Pass1Program::kFromPredecessor ? prec[src] : next[src];
      prog.readers[at++] = op.pid;
    }
  }
  prog.dirty.assign(np, std::uint8_t{1});
}

sched::ListProgram& AnalysisWorkspace::list_program() {
  if (!list_program_) {
    list_program_.emplace(*app_, *platform_, sched::critical_path_priorities(*app_));
  }
  return *list_program_;
}

namespace {

/// Index of the (MCS iteration, pass) record slot; passes at or past
/// kMaxStoredPasses share their iteration's last slot.
[[nodiscard]] std::size_t slot_index(std::size_t iteration, std::size_t pass) noexcept {
  constexpr std::size_t kPasses = AnalysisWorkspace::kMaxStoredPasses;
  return iteration * kPasses + std::min(pass, kPasses - 1);
}

}  // namespace

Time* AnalysisWorkspace::record_slot(std::size_t iteration, std::size_t pass) {
  const std::size_t index = slot_index(iteration, pass);
  if (record_slots_.size() <= index) record_slots_.resize(index + 1);
  std::vector<Time>& slot = record_slots_[index];
  if (slot.empty()) slot.assign(record_layout_.slot_size, 0);
  return slot.data();
}

const Time* AnalysisWorkspace::stored_slot(std::size_t iteration,
                                           std::size_t pass) const noexcept {
  const std::size_t index = slot_index(iteration, pass);
  if (index >= record_slots_.size() || record_slots_[index].empty()) return nullptr;
  return record_slots_[index].data();
}

std::size_t AnalysisWorkspace::record_bytes() const noexcept {
  std::size_t bytes = record_slots_.capacity() * sizeof(std::vector<Time>);
  for (const std::vector<Time>& slot : record_slots_) {
    bytes += slot.capacity() * sizeof(Time);
  }
  return bytes;
}

AnalysisWorkspace::State& AnalysisWorkspace::reset_state() {
  const std::size_t np = app_->num_processes();
  const std::size_t nm = app_->num_messages();
  state_.o_p.assign(np, 0);
  state_.e_p.assign(np, 0);
  state_.j_p.assign(np, 0);
  state_.w_p.assign(np, 0);
  state_.r_p.assign(np, 0);
  state_.o_m.assign(nm, 0);
  state_.e_m.assign(nm, 0);
  state_.j_m.assign(nm, 0);
  state_.w_m.assign(nm, 0);
  state_.r_m.assign(nm, 0);
  state_.d_m.assign(nm, 0);
  state_.ttp_wait.assign(nm, 0);
  state_.i_m.assign(nm, 0);
  std::ranges::fill(pass1_.dirty, std::uint8_t{1});
  return state_;
}

std::uint64_t state_hash(const AnalysisWorkspace::State& state) {
  util::Fnv1a h;
  const auto mix = [&h](const std::vector<Time>& v) {
    h.update(static_cast<std::int64_t>(v.size()));
    for (const Time t : v) h.update(t);
  };
  mix(state.o_p);
  mix(state.e_p);
  mix(state.j_p);
  mix(state.w_p);
  mix(state.r_p);
  mix(state.o_m);
  mix(state.e_m);
  mix(state.j_m);
  mix(state.w_m);
  mix(state.r_m);
  mix(state.d_m);
  mix(state.ttp_wait);
  h.update(static_cast<std::int64_t>(state.i_m.size()));
  for (const std::int64_t b : state.i_m) h.update(b);
  return h.digest();
}

}  // namespace mcs::core

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

  et_procs_by_node_.resize(platform.num_nodes());
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    const model::Process& proc = app.process(p);
    if (platform.is_et(proc.node)) {
      et_procs_by_node_[proc.node.index()].push_back(p);
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
  for (const auto& procs : et_procs_by_node_) {
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
  }

  packed_scratch_.o.resize(max_pool);
  packed_scratch_.e.resize(max_pool);
  packed_scratch_.j.resize(max_pool);
  packed_scratch_.w.resize(max_pool);
  packed_scratch_.r.resize(max_pool);
  packed_scratch_.d.resize(max_pool);
  packed_scratch_.prio.resize(max_pool);
  packed_scratch_.mask.resize(max_pool);
  packed_scratch_.vis.resize(max_pool);
  packed_scratch_.cand_a.resize(max_pool);
  packed_scratch_.cand_period.resize(max_pool);
  packed_scratch_.cand_cost.resize(max_pool);
  prio_changed_scratch_.resize(app.num_processes());

  // Candidate-list caches: sized for their pools up front so the steady
  // state never allocates; built lazily by the kernels (valid = false).
  proc_cand_cache_.resize(proc_pools_.size());
  for (std::size_t pi = 0; pi < proc_pools_.size(); ++pi) {
    const std::size_t n = proc_pools_[pi].pids.size();
    proc_cand_cache_[pi].prio.resize(n);
    proc_cand_cache_[pi].list.resize(n * n);
    proc_cand_cache_[pi].cls.resize(n * n);
    proc_cand_cache_[pi].len.resize(n);
  }
  {
    const std::size_t n = can_pool_.mids.size();
    can_cand_cache_.prio.resize(n);
    can_cand_cache_.list.resize(n * n);
    can_cand_cache_.cls.resize(n * n);
    can_cand_cache_.len.resize(n);
    can_cand_cache_.blk_list.resize(n * n);
    can_cand_cache_.blk_cls.resize(n * n);
    can_cand_cache_.blk_len.resize(n);
  }

  // Intra-run fixed-point skip bookkeeping: per-process last-seen pass-2
  // inputs and output-change flags, per-pool validity (see the pass-2
  // kernel; invalidated at the start of every analysis run).
  const std::size_t np = app.num_processes();
  intra_o_.resize(np);
  intra_e_.resize(np);
  intra_j_.resize(np);
  intra_r_.resize(np);
  intra_flags_.resize(np);
  intra_pool_valid_.resize(proc_pools_.size());
  const std::size_t nm = app.num_messages();
  intra_m_o_.resize(nm);
  intra_m_e_.resize(nm);
  intra_m_j_.resize(nm);
  intra_m_w_.resize(nm);
  intra_m_d_.resize(nm);
  intra_m_r_.resize(nm);
  intra_m_flags_.resize(nm);
  intra_t_o_.resize(nm);
  intra_t_e_.resize(nm);
  intra_t_j_.resize(nm);
  intra_t_w_.resize(nm);
  intra_t_r_.resize(nm);
  intra_t_d_.resize(nm);
  intra_t_i_.resize(nm);
  intra_t_wait_.resize(nm);

  // Pass-1 per-graph activity (propagate skip) plus the member -> graph
  // maps the passes use to re-arm a graph when they change its state.
  p1_active_.assign(app.num_graphs(), std::uint8_t{1});
  proc_graph_.resize(np);
  for (std::size_t i = 0; i < np; ++i) {
    proc_graph_[i] = static_cast<std::uint32_t>(
        app.process(ProcessId(static_cast<ProcessId::underlying_type>(i)))
            .graph.index());
  }
  msg_graph_.resize(nm);
  for (std::size_t i = 0; i < nm; ++i) {
    msg_graph_[i] = static_cast<std::uint32_t>(
        app.message(MessageId(static_cast<MessageId::underlying_type>(i)))
            .graph.index());
  }
}

const std::vector<Time>& AnalysisWorkspace::critical_path() {
  if (critical_path_.size() != app_->num_processes()) {
    critical_path_ = sched::critical_path_priorities(*app_);
  }
  return critical_path_;
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

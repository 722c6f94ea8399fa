#include "mcs/gen/generator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "mcs/core/analysis_types.hpp"

namespace mcs::gen {

namespace {

using model::Application;
using util::NodeId;
using util::ProcessId;
using util::Rng;
using util::Time;

struct Edge {
  std::size_t src = 0;  ///< global process index
  std::size_t dst = 0;
};

struct Blueprint {
  std::vector<std::size_t> graph_of;   ///< per process: graph index
  std::vector<Time> wcet;              ///< per process
  std::vector<NodeId> node;            ///< per process: mapping
  std::vector<Edge> edges;
  std::size_t num_graphs = 0;
  std::vector<std::size_t> graph_base;   ///< first process index per graph
  std::vector<std::size_t> graph_split;  ///< front/back boundary per graph
};

Time draw_wcet(const GeneratorParams& p, Rng& rng) {
  switch (p.wcet_distribution) {
    case WcetDistribution::Uniform:
      return rng.uniform_int(p.wcet_min, p.wcet_max);
    case WcetDistribution::Exponential: {
      const double x = rng.exponential(static_cast<double>(p.wcet_mean));
      const Time clamped = std::clamp<Time>(static_cast<Time>(x), p.wcet_min,
                                            4 * p.wcet_mean);
      return clamped;
    }
  }
  return p.wcet_min;
}

/// Layered-DAG structure for one graph occupying global process indices
/// [base, base+size).  Also records a cluster split boundary: the layer
/// boundary near the graph's middle with the fewest spanning edges (a
/// narrow cut keeps the natural gateway traffic close to the paper's
/// 10..50-message regime and lets the flip adjustment reach low targets).
void build_graph_structure(const GeneratorParams& p, std::size_t base,
                           std::size_t size, std::size_t quota, Blueprint& bp,
                           Rng& rng) {
  // Partition [0, size) into layers.
  std::vector<std::pair<std::size_t, std::size_t>> layers;  // (start, count)
  std::size_t placed = 0;
  while (placed < size) {
    const std::size_t width = std::min<std::size_t>(
        size - placed, static_cast<std::size_t>(rng.uniform_int(
                           static_cast<std::int64_t>(p.min_layer_width),
                           static_cast<std::int64_t>(p.max_layer_width))));
    layers.emplace_back(placed, width);
    placed += width;
  }
  const std::size_t first_edge = bp.edges.size();
  // Fan-in edges from earlier layers (biased to the previous one; "long"
  // edges reach back at most three layers so cuts stay narrow).
  for (std::size_t li = 1; li < layers.size(); ++li) {
    const auto [start, count] = layers[li];
    const auto [prev_start, prev_count] = layers[li - 1];
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t dst = base + start + i;
      const std::size_t fan_in = 1 + rng.index(p.max_fan_in);
      for (std::size_t f = 0; f < fan_in; ++f) {
        std::size_t src;
        if (li >= 2 && rng.bernoulli(0.15)) {
          const std::size_t window_first = layers[li >= 3 ? li - 3 : 0].first;
          src = base + window_first + rng.index(prev_start + prev_count - window_first);
        } else {
          src = base + prev_start + rng.index(prev_count);
        }
        if (src == dst) continue;
        bp.edges.push_back(Edge{src, dst});
      }
    }
  }
  // Deduplicate parallel edges (only this graph's slice is new).
  std::sort(bp.edges.begin() + static_cast<std::ptrdiff_t>(first_edge),
            bp.edges.end(), [](const Edge& a, const Edge& b) {
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });
  bp.edges.erase(std::unique(bp.edges.begin() + static_cast<std::ptrdiff_t>(first_edge),
                             bp.edges.end(),
                             [](const Edge& a, const Edge& b) {
                               return a.src == b.src && a.dst == b.dst;
                             }),
                 bp.edges.end());

  // Choose the split boundary: among layer boundaries in the middle half
  // of the graph, prefer the spanning-edge count closest to the quota.
  std::size_t best_split = size / 2;
  std::size_t best_score = static_cast<std::size_t>(-1);
  for (const auto& [layer_start, layer_count] : layers) {
    (void)layer_count;
    if (layer_start < size / 4 || layer_start > 3 * size / 4) continue;
    std::size_t spanning = 0;
    for (std::size_t ei = first_edge; ei < bp.edges.size(); ++ei) {
      const std::size_t s = bp.edges[ei].src - base;
      const std::size_t d = bp.edges[ei].dst - base;
      if ((s < layer_start) != (d < layer_start)) ++spanning;
    }
    const std::size_t score = spanning > quota ? spanning - quota : quota - spanning;
    if (score < best_score) {
      best_score = score;
      best_split = layer_start;
    }
  }
  bp.graph_base.push_back(base);
  bp.graph_split.push_back(best_split);
}

/// Greedy cluster flips steering the inter-cluster message count toward
/// the target (Figure 9c's knob).
void adjust_inter_cluster(const GeneratorParams& p, const arch::Platform& platform,
                          Blueprint& bp, Rng& rng) {
  if (p.target_inter_cluster_messages == 0) return;

  auto is_et = [&](std::size_t proc) { return platform.is_et(bp.node[proc]); };
  auto crossing = [&](const Edge& e) { return is_et(e.src) != is_et(e.dst); };
  auto count_crossing = [&] {
    return static_cast<std::ptrdiff_t>(
        std::count_if(bp.edges.begin(), bp.edges.end(), crossing));
  };

  // Incident edges per process.
  std::vector<std::vector<std::size_t>> incident(bp.node.size());
  for (std::size_t ei = 0; ei < bp.edges.size(); ++ei) {
    incident[bp.edges[ei].src].push_back(ei);
    incident[bp.edges[ei].dst].push_back(ei);
  }

  const auto target = static_cast<std::ptrdiff_t>(p.target_inter_cluster_messages);
  std::vector<std::size_t> order(bp.node.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::size_t> load(platform.num_nodes(), 0);
  for (const NodeId n : bp.node) ++load[n.index()];

  auto least_loaded = [&](bool want_et) {
    NodeId best = NodeId::invalid();
    for (std::size_t ni = 0; ni < platform.num_nodes(); ++ni) {
      const NodeId n(static_cast<NodeId::underlying_type>(ni));
      if (platform.node(n).is_gateway) continue;
      if (platform.is_et(n) != want_et) continue;
      if (!best.valid() || load[ni] < load[best.index()]) best = n;
    }
    return best;
  };

  for (int pass = 0; pass < 64; ++pass) {
    const std::ptrdiff_t current = count_crossing();
    if (current == target) return;
    const std::ptrdiff_t need = target - current;
    rng.shuffle(order);
    bool moved = false;
    for (const std::size_t proc : order) {
      // Flipping proc's cluster toggles the crossing state of each
      // incident edge: delta = same-cluster incident - crossing incident.
      std::ptrdiff_t cross_incident = 0;
      for (const std::size_t ei : incident[proc]) {
        if (crossing(bp.edges[ei])) ++cross_incident;
      }
      const auto total_incident = static_cast<std::ptrdiff_t>(incident[proc].size());
      const std::ptrdiff_t delta = total_incident - 2 * cross_incident;
      if (delta == 0) continue;
      if (std::abs(need - delta) >= std::abs(need)) continue;  // not toward target
      const NodeId dest = least_loaded(!is_et(proc));
      if (!dest.valid()) continue;
      --load[bp.node[proc].index()];
      bp.node[proc] = dest;
      ++load[dest.index()];
      moved = true;
      break;
    }
    if (!moved) return;  // no single flip improves further
  }
}

}  // namespace

GeneratedSystem generate(const GeneratorParams& p) {
  if (p.tt_nodes == 0 || p.et_nodes == 0) {
    throw std::invalid_argument("generate: need at least one node per cluster");
  }
  if (p.processes_per_node == 0 || p.period <= 0) {
    throw std::invalid_argument("generate: bad shape parameters");
  }
  if (p.wcet_min <= 0 || p.wcet_max < p.wcet_min) {
    throw std::invalid_argument("generate: bad WCET bounds");
  }
  if (p.msg_min_bytes <= 0 || p.msg_max_bytes < p.msg_min_bytes) {
    throw std::invalid_argument("generate: bad message size bounds");
  }

  Rng rng(p.seed);

  arch::Platform platform(
      arch::TtpBusParams{p.ttp_time_per_byte, p.ttp_frame_overhead},
      arch::CanBusParams::exact(p.can_bit_time));
  std::vector<NodeId> tt, et;
  for (std::size_t i = 0; i < p.tt_nodes; ++i) {
    tt.push_back(platform.add_tt_node("TT" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < p.et_nodes; ++i) {
    et.push_back(platform.add_et_node("ET" + std::to_string(i)));
  }
  (void)platform.add_gateway("GW");
  platform.set_gateway_transfer({p.gateway_transfer_wcet, p.period / 16});

  const std::size_t total = p.processes_per_node * (p.tt_nodes + p.et_nodes);
  Blueprint bp;
  bp.num_graphs = std::max<std::size_t>(1, total / std::max<std::size_t>(
                                               1, p.processes_per_graph));
  bp.graph_of.resize(total);
  bp.wcet.resize(total);
  bp.node.resize(total);

  // Graph sizes: spread the remainder over the first graphs.
  std::vector<std::size_t> sizes(bp.num_graphs, total / bp.num_graphs);
  for (std::size_t i = 0; i < total % bp.num_graphs; ++i) ++sizes[i];

  // Per-graph gateway-traffic quota steering the split choice.
  const std::size_t default_quota = 4;
  const std::size_t quota =
      p.target_inter_cluster_messages > 0
          ? std::max<std::size_t>(1, p.target_inter_cluster_messages / bp.num_graphs)
          : default_quota;

  std::size_t base = 0;
  for (std::size_t g = 0; g < bp.num_graphs; ++g) {
    for (std::size_t i = 0; i < sizes[g]; ++i) bp.graph_of[base + i] = g;
    build_graph_structure(p, base, sizes[g], quota, bp, rng);
    base += sizes[g];
  }

  for (std::size_t i = 0; i < total; ++i) bp.wcet[i] = draw_wcet(p, rng);

  if (p.locality_mapping) {
    // Locality mapping: each graph spans one TT and one ET node.  The
    // graph's front (earlier-layer) processes go to one home node and the
    // back ones to the other, cut at the narrow split boundary chosen
    // during structure generation; even graphs run TTC->ETC, odd graphs
    // the other way around, so both gateway directions carry traffic.
    // Node loads stay balanced because homes are assigned round-robin by
    // least load and graphs are near-equal in size.
    std::vector<std::size_t> load(platform.num_nodes(), 0);
    auto pick_least_loaded = [&](const std::vector<NodeId>& pool) {
      NodeId best = pool.front();
      for (const NodeId n : pool) {
        if (load[n.index()] < load[best.index()]) best = n;
      }
      return best;
    };
    for (std::size_t g = 0; g < bp.num_graphs; ++g) {
      const NodeId tt_home = pick_least_loaded(tt);
      const NodeId et_home = pick_least_loaded(et);
      const bool tt_first = (g % 2 == 0);
      const std::size_t split = bp.graph_split[g];
      for (std::size_t i = 0; i < sizes[g]; ++i) {
        const bool front = i < split;
        const NodeId node = (front == tt_first) ? tt_home : et_home;
        bp.node[bp.graph_base[g] + i] = node;
        ++load[node.index()];
      }
    }
  } else {
    // Scatter mapping: exactly processes_per_node per node, shuffled.
    std::vector<NodeId> slots;
    slots.reserve(total);
    for (const NodeId n : tt) slots.insert(slots.end(), p.processes_per_node, n);
    for (const NodeId n : et) slots.insert(slots.end(), p.processes_per_node, n);
    rng.shuffle(slots);
    for (std::size_t i = 0; i < total; ++i) bp.node[i] = slots[i];
  }

  adjust_inter_cluster(p, platform, bp, rng);

  // Instantiate the application.
  GeneratedSystem out{std::move(platform), Application{}, 0};
  const Time deadline = std::max<Time>(
      1, static_cast<Time>(static_cast<double>(p.period) * p.deadline_factor));
  std::vector<util::GraphId> graphs;
  // Names use append() rather than "G" + ...: GCC 12 reports a false
  // -Wrestrict overlap on operator+(const char*, std::string&&).
  for (std::size_t g = 0; g < bp.num_graphs; ++g) {
    graphs.push_back(out.app.add_graph(std::string("G").append(std::to_string(g)),
                                       p.period, deadline));
  }
  std::vector<ProcessId> procs;
  procs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    procs.push_back(out.app.add_process(graphs[bp.graph_of[i]],
                                        std::string("P").append(std::to_string(i)),
                                        bp.node[i],
                                        bp.wcet[i]));
  }
  for (const Edge& e : bp.edges) {
    const std::int64_t bytes = rng.uniform_int(p.msg_min_bytes, p.msg_max_bytes);
    (void)out.app.add_message(procs[e.src], procs[e.dst], bytes);
  }

  out.inter_cluster_messages = count_inter_cluster_messages(out.app, out.platform);
  return out;
}

std::size_t count_inter_cluster_messages(const Application& app,
                                         const arch::Platform& platform) {
  std::size_t n = 0;
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const auto route = core::classify_route(
        app, platform, util::MessageId(static_cast<util::MessageId::underlying_type>(mi)));
    if (route == core::MessageRoute::TtToEt || route == core::MessageRoute::EtToTt) {
      ++n;
    }
  }
  return n;
}

}  // namespace mcs::gen

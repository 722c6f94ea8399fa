#include "mcs/model/process_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace mcs::model {

std::vector<ProcessId> topological_order(const Application& app, GraphId g) {
  const std::span<const Process> procs = app.processes();
  const std::vector<ProcessId>& members = app.graph(g).processes;
  // In-degrees per ProcessId (only this graph's entries are read).
  // Duplicate arcs (a message plus an explicit dependency between the same
  // pair) are counted as-is; Kahn's algorithm handles multiplicities.
  std::vector<std::uint32_t> deg(procs.size(), 0);
  std::vector<ProcessId> order;
  order.reserve(members.size());
  for (const ProcessId p : members) {
    deg[p.index()] =
        static_cast<std::uint32_t>(procs[p.index()].predecessors.size());
    if (deg[p.index()] == 0) order.push_back(p);
  }
  // Sources in ascending id order, then FIFO: `order` doubles as the queue.
  std::sort(order.begin(), order.end());
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const ProcessId s : procs[order[head].index()].successors) {
      if (procs[s.index()].graph != g) continue;  // defensive: outside graph
      if (--deg[s.index()] == 0) order.push_back(s);
    }
  }
  if (order.size() != members.size()) {
    throw std::invalid_argument("topological_order: graph has a cycle");
  }
  return order;
}

std::vector<ProcessId> sources(const Application& app, GraphId g) {
  std::vector<ProcessId> out;
  for (const ProcessId p : app.graph(g).processes) {
    if (app.process(p).predecessors.empty()) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> sinks(const Application& app, GraphId g) {
  std::vector<ProcessId> out;
  for (const ProcessId p : app.graph(g).processes) {
    if (app.process(p).successors.empty()) out.push_back(p);
  }
  return out;
}

std::vector<Time> longest_path_to(const Application& app, GraphId g) {
  const std::span<const Process> procs = app.processes();
  std::vector<Time> dist(procs.size(), 0);  // per ProcessId
  for (const ProcessId p : topological_order(app, g)) {
    Time best = 0;
    for (const ProcessId pred : procs[p.index()].predecessors) {
      best = std::max(best, dist[pred.index()]);
    }
    dist[p.index()] = best + procs[p.index()].wcet;
  }
  std::vector<Time> out;
  out.reserve(app.graph(g).processes.size());
  for (const ProcessId p : app.graph(g).processes) out.push_back(dist[p.index()]);
  return out;
}

std::vector<Time> longest_path_from(const Application& app, GraphId g) {
  const std::span<const Process> procs = app.processes();
  const auto order = topological_order(app, g);
  std::vector<Time> dist(procs.size(), 0);  // per ProcessId
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Time best = 0;
    for (const ProcessId s : procs[it->index()].successors) {
      best = std::max(best, dist[s.index()]);
    }
    dist[it->index()] = best + procs[it->index()].wcet;
  }
  std::vector<Time> out;
  out.reserve(order.size());
  for (const ProcessId p : app.graph(g).processes) out.push_back(dist[p.index()]);
  return out;
}

ReachabilityIndex::ReachabilityIndex(const Application& app) {
  const std::size_t n = app.num_processes();
  words_ = (n + 63) / 64;
  closure_.assign(n * words_, 0);
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const GraphId g(static_cast<GraphId::underlying_type>(gi));
    const auto order = topological_order(app, g);
    // Reverse topological: successors' rows are complete when merged.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t row = it->index();
      set_bit(row, row);
      for (const ProcessId s : app.process(*it).successors) {
        or_row(row, s.index());
      }
    }
  }
}

bool ReachabilityIndex::reaches(ProcessId from, ProcessId to) const {
  return bit(from.index(), to.index());
}

bool ReachabilityIndex::bit(std::size_t row, std::size_t col) const {
  return (closure_[row * words_ + col / 64] >> (col % 64)) & 1U;
}

void ReachabilityIndex::set_bit(std::size_t row, std::size_t col) {
  closure_[row * words_ + col / 64] |= (std::uint64_t{1} << (col % 64));
}

void ReachabilityIndex::or_row(std::size_t dst, std::size_t src) {
  for (std::size_t w = 0; w < words_; ++w) {
    closure_[dst * words_ + w] |= closure_[src * words_ + w];
  }
}

bool reaches(const Application& app, ProcessId from, ProcessId to) {
  if (from == to) return true;
  std::vector<ProcessId> stack{from};
  std::vector<bool> seen(app.num_processes(), false);
  seen[from.index()] = true;
  while (!stack.empty()) {
    const ProcessId p = stack.back();
    stack.pop_back();
    for (const ProcessId s : app.process(p).successors) {
      if (s == to) return true;
      if (!seen[s.index()]) {
        seen[s.index()] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

}  // namespace mcs::model

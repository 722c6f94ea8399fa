#include "mcs/model/application.hpp"

#include <stdexcept>

#include "mcs/util/math.hpp"

namespace mcs::model {

GraphId Application::add_graph(std::string name, Time period, Time deadline) {
  if (period <= 0) throw std::invalid_argument("add_graph: period must be positive");
  if (deadline <= 0 || deadline > period) {
    throw std::invalid_argument("add_graph: deadline must be in (0, period]");
  }
  const GraphId id(static_cast<GraphId::underlying_type>(graphs_.size()));
  graphs_.push_back(ProcessGraph{std::move(name), period, deadline, {}, {}});
  return id;
}

ProcessId Application::add_process(GraphId graph_id, std::string name, NodeId node,
                                   Time wcet) {
  if (graph_id.index() >= graphs_.size()) {
    throw std::out_of_range("add_process: unknown graph");
  }
  if (wcet <= 0) throw std::invalid_argument("add_process: wcet must be positive");
  const ProcessId id(static_cast<ProcessId::underlying_type>(processes_.size()));
  Process p;
  p.name = std::move(name);
  p.graph = graph_id;
  p.wcet = wcet;
  p.node = node;
  processes_.push_back(std::move(p));
  graphs_[graph_id.index()].processes.push_back(id);
  return id;
}

MessageId Application::add_message(ProcessId src, ProcessId dst,
                                   std::int64_t size_bytes, std::string name) {
  if (src.index() >= processes_.size() || dst.index() >= processes_.size()) {
    throw std::out_of_range("add_message: unknown process");
  }
  if (src == dst) throw std::invalid_argument("add_message: self-loop");
  if (size_bytes <= 0) throw std::invalid_argument("add_message: size must be positive");
  Process& s = processes_[src.index()];
  Process& d = processes_[dst.index()];
  if (s.graph != d.graph) {
    throw std::invalid_argument("add_message: processes belong to different graphs");
  }
  const MessageId id(static_cast<MessageId::underlying_type>(messages_.size()));
  // append() rather than "m" + ...: GCC 12 reports a false -Wrestrict
  // overlap on operator+(const char*, std::string&&).
  if (name.empty()) name = std::string("m").append(std::to_string(id.value()));
  messages_.push_back(Message{std::move(name), s.graph, src, dst, size_bytes});
  s.successors.push_back(dst);
  s.out_messages.push_back(id);
  d.predecessors.push_back(src);
  d.in_messages.push_back(id);
  graphs_[s.graph.index()].messages.push_back(id);
  return id;
}

void Application::add_dependency(ProcessId src, ProcessId dst) {
  if (src.index() >= processes_.size() || dst.index() >= processes_.size()) {
    throw std::out_of_range("add_dependency: unknown process");
  }
  if (src == dst) throw std::invalid_argument("add_dependency: self-loop");
  Process& s = processes_[src.index()];
  Process& d = processes_[dst.index()];
  if (s.graph != d.graph) {
    throw std::invalid_argument("add_dependency: processes belong to different graphs");
  }
  s.successors.push_back(dst);
  d.predecessors.push_back(src);
}

void Application::set_local_deadline(ProcessId p, Time deadline) {
  if (p.index() >= processes_.size()) {
    throw std::out_of_range("set_local_deadline: unknown process");
  }
  if (deadline <= 0) throw std::invalid_argument("set_local_deadline: must be positive");
  processes_[p.index()].local_deadline = deadline;
}

Time Application::hyper_period() const {
  if (graphs_.empty()) throw std::logic_error("hyper_period: empty application");
  Time h = 1;
  for (const auto& g : graphs_) h = util::lcm64(h, g.period);
  return h;
}

}  // namespace mcs::model

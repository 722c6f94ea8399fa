#include "mcs/gen/textio.hpp"

#include <fstream>
#include <set>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace mcs::gen {

namespace {

using util::Time;

struct Line {
  int number = 0;
  std::vector<std::string> tokens;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

std::vector<Line> tokenize(std::istream& in) {
  std::vector<Line> lines;
  std::string raw;
  int number = 0;
  while (std::getline(in, raw)) {
    ++number;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ss(raw);
    Line line;
    line.number = number;
    std::string token;
    while (ss >> token) line.tokens.push_back(token);
    if (!line.tokens.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

Time parse_time(const Line& line, const std::string& token) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(token, &pos);
    if (pos != token.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    fail(line.number, "expected an integer, got '" + token + "'");
  }
}

void expect_arity(const Line& line, std::size_t arity) {
  if (line.tokens.size() != arity) {
    fail(line.number, "'" + line.tokens[0] + "' expects " +
                          std::to_string(arity - 1) + " arguments");
  }
}

}  // namespace

util::NodeId ParsedSystem::node(const std::string& name) const {
  const auto it = nodes_by_name.find(name);
  if (it == nodes_by_name.end()) {
    throw std::invalid_argument("unknown node '" + name + "'");
  }
  return it->second;
}

util::ProcessId ParsedSystem::process(const std::string& name) const {
  const auto it = processes_by_name.find(name);
  if (it == processes_by_name.end()) {
    throw std::invalid_argument("unknown process '" + name + "'");
  }
  return it->second;
}

util::MessageId ParsedSystem::message(const std::string& name) const {
  const auto it = messages_by_name.find(name);
  if (it == messages_by_name.end()) {
    throw std::invalid_argument("unknown message '" + name + "'");
  }
  return it->second;
}

ParsedSystem parse_system(std::istream& in) {
  const auto lines = tokenize(in);

  // Two passes: bus parameters first (the Platform is immutable on that
  // axis), then the topology in declaration order.
  arch::TtpBusParams ttp{1, 0};
  arch::CanBusParams can = arch::CanBusParams::linear(1, 0);
  arch::GatewayTransferParams transfer{};
  for (const Line& line : lines) {
    const std::string& kw = line.tokens[0];
    if (kw == "ttp") {
      expect_arity(line, 3);
      ttp.time_per_byte = parse_time(line, line.tokens[1]);
      ttp.frame_overhead = parse_time(line, line.tokens[2]);
      if (ttp.time_per_byte <= 0) fail(line.number, "time_per_byte must be positive");
    } else if (kw == "can") {
      if (line.tokens.size() < 2) fail(line.number, "'can' expects a model");
      if (line.tokens[1] == "linear") {
        expect_arity(line, 4);
        can = arch::CanBusParams::linear(parse_time(line, line.tokens[2]),
                                         parse_time(line, line.tokens[3]));
      } else if (line.tokens[1] == "exact") {
        if (line.tokens.size() != 3 && line.tokens.size() != 4) {
          fail(line.number, "'can exact' expects <bit_time> [standard|extended]");
        }
        auto format = arch::CanFrameFormat::Standard;
        if (line.tokens.size() == 4) {
          if (line.tokens[3] == "extended") {
            format = arch::CanFrameFormat::Extended;
          } else if (line.tokens[3] != "standard") {
            fail(line.number, "unknown CAN frame format '" + line.tokens[3] + "'");
          }
        }
        can = arch::CanBusParams::exact(parse_time(line, line.tokens[2]), format);
      } else {
        fail(line.number, "unknown CAN model '" + line.tokens[1] + "'");
      }
    } else if (kw == "gateway_transfer") {
      expect_arity(line, 3);
      transfer.wcet = parse_time(line, line.tokens[1]);
      transfer.period = parse_time(line, line.tokens[2]);
    }
  }

  ParsedSystem sys{arch::Platform(ttp, can), model::Application{}, {}, {}, {}, {}};
  sys.platform.set_gateway_transfer(transfer);

  for (const Line& line : lines) {
    const std::string& kw = line.tokens[0];
    try {
      if (kw == "ttp" || kw == "can" || kw == "gateway_transfer") {
        continue;  // handled above
      } else if (kw == "node") {
        expect_arity(line, 3);
        const std::string& name = line.tokens[1];
        if (sys.nodes_by_name.count(name)) fail(line.number, "duplicate node");
        util::NodeId id;
        if (line.tokens[2] == "tt") {
          id = sys.platform.add_tt_node(name);
        } else if (line.tokens[2] == "et") {
          id = sys.platform.add_et_node(name);
        } else if (line.tokens[2] == "gateway") {
          id = sys.platform.add_gateway(name);
        } else {
          fail(line.number, "node kind must be tt, et or gateway");
        }
        sys.nodes_by_name.emplace(name, id);
      } else if (kw == "graph") {
        expect_arity(line, 4);
        const std::string& name = line.tokens[1];
        if (sys.graphs_by_name.count(name)) fail(line.number, "duplicate graph");
        sys.graphs_by_name.emplace(
            name, sys.app.add_graph(name, parse_time(line, line.tokens[2]),
                                    parse_time(line, line.tokens[3])));
      } else if (kw == "process") {
        expect_arity(line, 5);
        const std::string& name = line.tokens[1];
        if (sys.processes_by_name.count(name)) fail(line.number, "duplicate process");
        const auto graph_it = sys.graphs_by_name.find(line.tokens[2]);
        if (graph_it == sys.graphs_by_name.end()) {
          fail(line.number, "unknown graph '" + line.tokens[2] + "'");
        }
        sys.processes_by_name.emplace(
            name, sys.app.add_process(graph_it->second, name,
                                      sys.node(line.tokens[3]),
                                      parse_time(line, line.tokens[4])));
      } else if (kw == "message") {
        expect_arity(line, 5);
        const std::string& name = line.tokens[1];
        if (sys.messages_by_name.count(name)) fail(line.number, "duplicate message");
        sys.messages_by_name.emplace(
            name, sys.app.add_message(sys.process(line.tokens[2]),
                                      sys.process(line.tokens[3]),
                                      parse_time(line, line.tokens[4]), name));
      } else if (kw == "dependency") {
        expect_arity(line, 3);
        sys.app.add_dependency(sys.process(line.tokens[1]),
                               sys.process(line.tokens[2]));
      } else if (kw == "deadline") {
        expect_arity(line, 3);
        sys.app.set_local_deadline(sys.process(line.tokens[1]),
                                   parse_time(line, line.tokens[2]));
      } else {
        fail(line.number, "unknown keyword '" + kw + "'");
      }
    } catch (const std::invalid_argument& e) {
      // Re-annotate builder errors with the line number (fail() output
      // already carries it and passes through unchanged).
      const std::string what = e.what();
      if (what.rfind("line ", 0) == 0) throw;
      fail(line.number, what);
    }
  }
  return sys;
}

ParsedSystem parse_system_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  return parse_system(in);
}

void write_system(std::ostream& out, const arch::Platform& platform,
                  const model::Application& app) {
  out << "# mcs system description\n";
  out << "ttp " << platform.ttp().time_per_byte << " "
      << platform.ttp().frame_overhead << "\n";
  const arch::CanBusParams& can = platform.can();
  if (can.is_exact()) {
    out << "can exact " << can.bit_time()
        << (can.format() == arch::CanFrameFormat::Extended ? " extended\n"
                                                           : " standard\n");
  } else {
    out << "can linear " << can.base() << " " << can.per_byte() << "\n";
  }
  out << "gateway_transfer " << platform.gateway_transfer().wcet << " "
      << platform.gateway_transfer().period << "\n";
  for (std::size_t ni = 0; ni < platform.num_nodes(); ++ni) {
    const auto& node = platform.nodes()[ni];
    out << "node " << node.name << " "
        << (node.is_gateway ? "gateway"
                            : (node.cluster == arch::ClusterKind::TimeTriggered
                                   ? "tt"
                                   : "et"))
        << "\n";
  }
  for (const auto& graph : app.graphs()) {
    out << "graph " << graph.name << " " << graph.period << " " << graph.deadline
        << "\n";
  }
  for (const auto& process : app.processes()) {
    out << "process " << process.name << " " << app.graph(process.graph).name
        << " " << platform.node(process.node).name << " " << process.wcet << "\n";
  }
  for (const auto& message : app.messages()) {
    out << "message " << message.name << " " << app.process(message.src).name
        << " " << app.process(message.dst).name << " " << message.size_bytes
        << "\n";
  }
  // Pure dependencies: arcs without a message.
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const auto& process = app.processes()[pi];
    std::multiset<util::ProcessId> message_targets;
    for (const auto m : process.out_messages) {
      message_targets.insert(app.message(m).dst);
    }
    for (const auto succ : process.successors) {
      const auto it = message_targets.find(succ);
      if (it != message_targets.end()) {
        message_targets.erase(it);
        continue;
      }
      out << "dependency " << process.name << " " << app.process(succ).name << "\n";
    }
  }
  for (const auto& process : app.processes()) {
    if (process.local_deadline) {
      out << "deadline " << process.name << " " << *process.local_deadline << "\n";
    }
  }
}

}  // namespace mcs::gen

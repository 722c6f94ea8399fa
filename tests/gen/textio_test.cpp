#include "mcs/gen/textio.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/cruise_control.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/model/validation.hpp"

namespace mcs::gen {
namespace {

constexpr const char* kPaperExample = R"(
# paper example
ttp 1 0
can linear 10 0
gateway_transfer 5 10
node N1 tt
node N2 et
node NG gateway
graph G1 240 200
process P1 G1 N1 30
process P2 G1 N2 20
process P3 G1 N2 20
process P4 G1 N1 30
message m1 P1 P2 8
message m2 P1 P3 8
message m3 P2 P4 8
)";

TEST(TextIo, ParsesPaperExample) {
  std::istringstream in(kPaperExample);
  const auto sys = parse_system(in);
  EXPECT_EQ(sys.app.num_processes(), 4u);
  EXPECT_EQ(sys.app.num_messages(), 3u);
  EXPECT_EQ(sys.platform.num_nodes(), 3u);
  EXPECT_TRUE(sys.platform.has_gateway());
  EXPECT_EQ(sys.platform.gateway_transfer().wcet, 5);
  EXPECT_EQ(sys.app.graph(util::GraphId(0)).period, 240);
  EXPECT_EQ(sys.app.process(sys.process("P1")).wcet, 30);
  EXPECT_EQ(sys.app.message(sys.message("m3")).size_bytes, 8);
  EXPECT_TRUE(model::validate(sys.app, sys.platform).ok());
}

TEST(TextIo, ParsedSystemAnalyzesLikeBuiltSystem) {
  std::istringstream in(kPaperExample);
  const auto sys = parse_system(in);
  // Reproduce Figure 4a on the parsed system.
  std::vector<arch::Slot> slots{arch::Slot{sys.node("NG"), 20},
                                arch::Slot{sys.node("N1"), 20}};
  core::SystemConfig cfg(sys.app,
                         arch::TdmaRound(std::move(slots), sys.platform.ttp()));
  cfg.set_message_priority(sys.message("m1"), 0);
  cfg.set_message_priority(sys.message("m2"), 1);
  cfg.set_message_priority(sys.message("m3"), 2);
  cfg.set_process_priority(sys.process("P3"), 0);
  cfg.set_process_priority(sys.process("P2"), 1);
  const auto mcs = core::multi_cluster_scheduling(sys.app, sys.platform, cfg,
                                                  core::McsOptions{});
  EXPECT_EQ(mcs.analysis.graph_response[0], 210);
}

// A written system must carry every analysis input: write -> parse ->
// write is a text fixpoint, and the parsed system analyzes exactly like
// the original.  Generated systems use the exact CAN bit-time model
// (validation seed 8348 is the instance whose bound violations a lossy
// CAN model used to hide); the cruise controller uses linear(4, 0).
TEST(TextIo, RoundTripsGeneratedSystems) {
  const auto cc = make_cruise_controller();
  std::vector<std::pair<arch::Platform, model::Application>> systems = {
      {cc.platform, cc.app}};
  for (const auto& suite : {suite_by_name("validation", 1, 8206),
                            suite_by_name("tiny", 1, 500)}) {
    for (const SuitePoint& point : suite) {
      GeneratedSystem sys = generate(point.params);
      systems.emplace_back(std::move(sys.platform), std::move(sys.app));
    }
  }
  ASSERT_EQ(suite_by_name("validation", 1, 8206)[0].params.seed, 8348u);

  for (const auto& [platform, app] : systems) {
    std::ostringstream out;
    write_system(out, platform, app);
    std::istringstream in(out.str());
    const auto parsed = parse_system(in);
    std::ostringstream again;
    write_system(again, parsed.platform, parsed.app);
    EXPECT_EQ(again.str(), out.str());

    ASSERT_EQ(parsed.app.num_processes(), app.num_processes());
    EXPECT_EQ(parsed.app.num_messages(), app.num_messages());
    EXPECT_EQ(parsed.platform.num_nodes(), platform.num_nodes());
    for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
      EXPECT_EQ(parsed.app.processes()[pi].wcet, app.processes()[pi].wcet);
      EXPECT_EQ(parsed.app.processes()[pi].name, app.processes()[pi].name);
      EXPECT_EQ(parsed.app.processes()[pi].predecessors.size(),
                app.processes()[pi].predecessors.size());
    }

    const core::MoveContext original_ctx(app, platform, core::McsOptions{});
    const core::MoveContext parsed_ctx(parsed.app, parsed.platform, core::McsOptions{});
    const auto original = core::straightforward(original_ctx).evaluation;
    const auto reparsed = core::straightforward(parsed_ctx).evaluation;
    EXPECT_EQ(reparsed.s_total, original.s_total);
    EXPECT_EQ(reparsed.mcs.analysis.graph_response, original.mcs.analysis.graph_response);
  }
}

TEST(TextIo, ExactCanModel) {
  std::istringstream in(R"(
ttp 4 16
can exact 2 extended
node A tt
node B tt
graph G 1000 1000
process p1 G A 10
process p2 G B 10
message m p1 p2 8
)");
  const auto sys = parse_system(in);
  // 8-byte extended frame worst case: 160 bits at 2 ticks/bit.
  EXPECT_EQ(sys.platform.can().tx_time(8), 320);
  EXPECT_EQ(sys.platform.ttp().frame_overhead, 16);
}

TEST(TextIo, DependencyAndLocalDeadline) {
  std::istringstream in(R"(
ttp 1 0
can linear 5 0
node A tt
graph G 100 90
process p1 G A 10
process p2 G A 10
dependency p1 p2
deadline p2 50
)");
  const auto sys = parse_system(in);
  EXPECT_EQ(sys.app.process(sys.process("p2")).predecessors.size(), 1u);
  EXPECT_EQ(sys.app.process(sys.process("p2")).local_deadline, 50);
}

TEST(TextIo, ErrorsCarryLineNumbers) {
  auto expect_error = [](const char* text, const char* fragment) {
    std::istringstream in(text);
    try {
      (void)parse_system(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  expect_error("frobnicate x y\n", "unknown keyword");
  expect_error("node N1\n", "expects 2 arguments");
  expect_error("node N1 quantum\n", "tt, et or gateway");
  expect_error("ttp 1 0\ncan linear 5 0\nnode A tt\ngraph G ten 100\n",
               "expected an integer");
  expect_error("ttp 1 0\ncan linear 5 0\nnode A tt\n"
               "graph G 100 100\nprocess p Gmissing A 5\n",
               "unknown graph");
  expect_error("ttp 1 0\ncan linear 5 0\nnode A tt\n"
               "graph G 100 100\nprocess p G A 5\nprocess p G A 5\n",
               "duplicate process");
  expect_error("ttp 1 0\ncan linear 5 0\nnode A tt\n"
               "graph G 100 200\n",  // deadline > period
               "line ");
}

TEST(TextIo, UnknownReferencesThrow) {
  std::istringstream in(kPaperExample);
  const auto sys = parse_system(in);
  EXPECT_THROW((void)sys.node("nope"), std::invalid_argument);
  EXPECT_THROW((void)sys.process("nope"), std::invalid_argument);
  EXPECT_THROW((void)sys.message("nope"), std::invalid_argument);
}

TEST(TextIo, MissingFileThrows) {
  EXPECT_THROW((void)parse_system_file("/nonexistent/path.mcs"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcs::gen

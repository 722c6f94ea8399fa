// Golden-trace regression for the MultiClusterScheduling fixed point:
// every iteration's TTC schedule and every response-time-analysis pass
// state is hashed (FNV-1a over the complete State) into a trace, recorded
// once into tests/data/*.trace and diffed here at iteration granularity.
// Any change to the fixed-point trajectory — a reordered recurrence, an
// off-by-one in a pass, a perturbed convergence path — shows up as the
// exact iteration and pass where the trajectories fork, not just as a
// changed final answer (compensating errors cannot hide).
//
// Traces are recorded under DeltaMode::Off so they pin the SEED semantics:
// the historical pass-for-pass trajectory that the delta machinery must
// replay bit-exactly.  Regenerate after an intentional semantic change
// with:  MCS_REGEN_GOLDEN=1 ./mcs_core_tests --gtest_filter='GoldenTrace.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"

namespace mcs::core {
namespace {

using TraceRecord = AnalysisWorkspace::TraceRecord;

gen::GeneratorParams small_system(std::uint64_t seed, std::size_t tt = 2,
                                  std::size_t et = 2) {
  gen::GeneratorParams p;
  p.tt_nodes = tt;
  p.et_nodes = et;
  p.processes_per_node = 8;
  p.processes_per_graph = 16;
  p.seed = seed;
  p.wcet_min = 50;
  p.wcet_max = 400;
  return p;
}

std::vector<TraceRecord> record_trace(const model::Application& app,
                                      const arch::Platform& platform,
                                      AnalysisKernel kernel) {
  AnalysisWorkspace ws(app, platform);
  ws.set_delta_mode(DeltaMode::Off);
  std::vector<TraceRecord> records;
  ws.set_trace_sink(&records);
  const Candidate cand = Candidate::initial(app, platform);
  SystemConfig cfg = cand.to_config(app);
  McsOptions options;
  options.analysis.kernel = kernel;
  (void)multi_cluster_scheduling(app, platform, cfg, cand.pins, options, ws);
  ws.set_trace_sink(nullptr);
  return records;
}

std::string golden_path(const std::string& name) {
  return std::string(MCS_TEST_DATA_DIR) + "/" + name + ".trace";
}

void write_golden(const std::string& name,
                  const std::vector<TraceRecord>& records) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path(name);
  out << "# mcs fixed-point trace: " << name << "\n";
  out << "# s <mcs_iteration> <schedule_hash> | p <mcs_iteration> <pass> "
         "<state_hash>\n";
  for (const TraceRecord& r : records) {
    if (r.pass < 0) {
      out << "s " << r.mcs_iteration << " " << r.hash << "\n";
    } else {
      out << "p " << r.mcs_iteration << " " << r.pass << " " << r.hash << "\n";
    }
  }
}

bool read_golden(const std::string& name, std::vector<TraceRecord>& records) {
  std::ifstream in(golden_path(name));
  if (!in.is_open()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    char kind = 0;
    TraceRecord r;
    fields >> kind;
    if (kind == 's') {
      r.pass = -1;
      fields >> r.mcs_iteration >> r.hash;
    } else {
      fields >> r.mcs_iteration >> r.pass >> r.hash;
    }
    if (fields.fail()) return false;
    records.push_back(r);
  }
  return true;
}

/// Diffs one kernel's trajectory against the golden fixture.
void check_against_golden(const std::string& name,
                          const model::Application& app,
                          const arch::Platform& platform,
                          AnalysisKernel kernel) {
  SCOPED_TRACE(std::string("kernel ") + kernel_name(kernel));
  const std::vector<TraceRecord> actual = record_trace(app, platform, kernel);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("MCS_REGEN_GOLDEN") != nullptr) {
    // Refuse to bake a Packed kernel bug into the fixture: whatever kernel
    // produced `actual`, it must first reproduce the independent Reference
    // trajectory record-for-record.  Only the cross-checked trace is
    // written.
    const std::vector<TraceRecord> ref =
        record_trace(app, platform, AnalysisKernel::Reference);
    ASSERT_EQ(ref.size(), actual.size())
        << name << ": regen refused — the active kernel's trajectory has a "
        << "different record count than the Reference kernel";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(ref[i].mcs_iteration == actual[i].mcs_iteration &&
                  ref[i].pass == actual[i].pass && ref[i].hash == actual[i].hash)
          << name << ": regen refused — active kernel diverges from the "
          << "Reference kernel at record " << i << " (MCS iteration "
          << ref[i].mcs_iteration << ", pass " << ref[i].pass
          << "); fix the kernel before regenerating goldens";
    }
    write_golden(name, ref);
    GTEST_SKIP() << "regenerated " << golden_path(name) << " ("
                 << actual.size() << " records, Reference-verified)";
  }

  std::vector<TraceRecord> golden;
  ASSERT_TRUE(read_golden(name, golden))
      << "missing or malformed golden " << golden_path(name)
      << " — regenerate with MCS_REGEN_GOLDEN=1";

  // Diff at iteration/pass granularity: report the first fork point with
  // its coordinates, then the count mismatch if one trace is a prefix.
  const std::size_t n = std::min(golden.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(golden[i].mcs_iteration, actual[i].mcs_iteration)
        << name << ": record " << i << " belongs to a different MCS iteration";
    ASSERT_EQ(golden[i].pass, actual[i].pass)
        << name << ": record " << i << " (iteration "
        << golden[i].mcs_iteration << ") belongs to a different pass";
    ASSERT_EQ(golden[i].hash, actual[i].hash)
        << name << ": state diverges at MCS iteration "
        << golden[i].mcs_iteration << ", "
        << (golden[i].pass < 0
                ? std::string("TTC schedule")
                : "analysis pass " + std::to_string(golden[i].pass))
        << " (record " << i << " of " << golden.size() << ")";
  }
  EXPECT_EQ(golden.size(), actual.size())
      << name << ": trace lengths differ — the fixed point now runs a "
      << "different number of iterations or passes";
}

/// Both kernels must reproduce the fixture.
void check_against_golden(const std::string& name,
                          const model::Application& app,
                          const arch::Platform& platform) {
  for (const AnalysisKernel kernel :
       {AnalysisKernel::Packed, AnalysisKernel::Reference}) {
    check_against_golden(name, app, platform, kernel);
  }
}

TEST(GoldenTrace, PaperExample) {
  const auto ex = gen::make_paper_example();
  check_against_golden("paper_example", ex.app, ex.platform);
}

TEST(GoldenTrace, GeneratedTwoByTwo) {
  const auto sys = gen::generate(small_system(11));
  check_against_golden("generated_2x2_seed11", sys.app, sys.platform);
}

TEST(GoldenTrace, GeneratedThreeByOne) {
  const auto sys = gen::generate(small_system(33, 3, 1));
  check_against_golden("generated_3x1_seed33", sys.app, sys.platform);
}

}  // namespace
}  // namespace mcs::core

// Candidate-evaluation throughput: the number the whole synthesis flow is
// bounded by (HOPA, OS, OR and SAS/SAR all sit in a loop around
// MoveContext::evaluate).  Replays one identical visit sequence — a random
// walk over a bounded candidate set, with revisits like SA reheats and
// hill-climbing re-expansions — through three code paths:
//
//   baseline        — the pre-workspace path: every evaluation rebuilds the
//                     analysis setup (routes, topological orders, pools,
//                     state vectors) around a prebuilt reachability index;
//   workspace       — MoveContext::evaluate_uncached: all candidate-
//                     invariant structure hoisted into the shared
//                     AnalysisWorkspace, buffers reset in place;
//   workspace+cache — MoveContext::evaluate: the memoized hot path.
//
// A second pair of sequences measures the CACHE-MISS path the delta
// analysis (DESIGN.md §2) targets — every visit is one move away from the
// previous one, so the trajectory replay has a warm base and a small
// dirty set, and no visit repeats, so the evaluation cache never hits:
//
//   local walk — single-cluster-local moves only (ETC priority swaps),
//                the delta fast path: full vs delta (speedup_delta_local);
//   mixed walk — every move kind, so TDMA/TTC moves interleave cold
//                fallbacks with delta runs (speedup_delta_mixed).
//
// Each walk runs in three configurations: `seed` (Reference kernel, delta
// off — the pre-SoA, pre-delta miss path), `full` (Packed kernel, delta
// off) and `delta` (Packed kernel, delta on — the current default).
// speedup_local_vs_seed / speedup_mixed_vs_seed are the before/after
// numbers for the miss path as a whole; speedup_delta_* isolate the delta
// machinery against the already-packed full analysis.
//
// Emits BENCH_eval_throughput.json (consumed by CI as a perf artifact) and
// fails loudly if any two paths disagree on any evaluation, making the
// bench double as an end-to-end consistency check.
//
//   MCS_BENCH_EVAL_VISITS=N   length of the visit sequence  (default 512)
//   MCS_BENCH_FULL=1          adds a paper-scale instance (6 nodes x 40)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/util/rng.hpp"

namespace {

using namespace mcs;

struct ModeResult {
  double seconds = 0.0;
  double evals_per_sec = 0.0;
  std::int64_t checksum = 0;
};

struct Instance {
  std::string name;
  model::Application app;
  arch::Platform platform;
};

std::int64_t eval_checksum(const core::Evaluation& eval) {
  return eval.delta.f1 * 1000003 + eval.delta.f2 * 9176 + eval.s_total +
         (eval.schedulable ? 1 : 0);
}

/// The identical candidate visit sequence replayed by every mode.
std::vector<core::Candidate> make_visits(const core::MoveContext& ctx,
                                         std::size_t num_visits) {
  const std::size_t distinct = std::max<std::size_t>(4, num_visits / 8);
  util::Rng rng(20030);

  // Random walk: each step applies one move to the previous candidate, so
  // the set resembles an SA trajectory's neighborhood.
  std::vector<core::Candidate> pool;
  core::Candidate current = core::Candidate::initial(ctx.app(), ctx.platform());
  const core::Evaluation base_eval = ctx.evaluate_uncached(current);
  pool.push_back(current);
  while (pool.size() < distinct) {
    const core::Move move = ctx.random_move(current, base_eval, rng);
    if (!ctx.apply(move, current)) continue;
    pool.push_back(current);
  }

  std::vector<core::Candidate> visits;
  visits.reserve(num_visits);
  for (std::size_t i = 0; i < num_visits; ++i) {
    visits.push_back(pool[rng.index(pool.size())]);
  }
  return visits;
}

ModeResult run_baseline(const Instance& inst,
                        const std::vector<core::Candidate>& visits) {
  // What MoveContext::evaluate did before the workspace existed: a hoisted
  // reachability index, everything else rebuilt per call.
  const model::ReachabilityIndex reach(inst.app);
  ModeResult r;
  const bench::Stopwatch watch;
  for (const core::Candidate& cand : visits) {
    core::SystemConfig cfg = cand.to_config(inst.app);
    const core::McsResult mcs = core::multi_cluster_scheduling(
        inst.app, inst.platform, cfg, cand.pins, core::McsOptions{}, reach);
    core::Evaluation eval;
    eval.delta = core::degree_of_schedulability(inst.app, mcs.analysis);
    eval.s_total = mcs.analysis.buffers.total();
    eval.schedulable = mcs.schedulable(inst.app);
    r.checksum += eval_checksum(eval);
  }
  r.seconds = watch.seconds();
  r.evals_per_sec = static_cast<double>(visits.size()) / r.seconds;
  return r;
}

ModeResult run_workspace(const core::MoveContext& ctx,
                         const std::vector<core::Candidate>& visits, bool cached) {
  ModeResult r;
  const bench::Stopwatch watch;
  for (const core::Candidate& cand : visits) {
    const core::Evaluation eval =
        cached ? ctx.evaluate(cand) : ctx.evaluate_uncached(cand);
    r.checksum += eval_checksum(eval);
  }
  r.seconds = watch.seconds();
  r.evals_per_sec = static_cast<double>(visits.size()) / r.seconds;
  return r;
}

/// A walk where every visit is the previous one plus ONE ETC priority
/// swap between two processes on the same node — the single-cluster-local
/// neighborhood where the delta analysis replays everything but one pool.
std::vector<core::Candidate> make_local_walk(const core::MoveContext& ctx,
                                             std::size_t num_visits) {
  util::Rng rng(7177);
  std::vector<std::pair<util::ProcessId, util::ProcessId>> pairs;
  const auto& procs = ctx.et_processes();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    for (std::size_t j = i + 1; j < procs.size(); ++j) {
      if (ctx.app().process(procs[i]).node == ctx.app().process(procs[j]).node) {
        pairs.emplace_back(procs[i], procs[j]);
      }
    }
  }

  std::vector<core::Candidate> walk;
  core::Candidate current = core::Candidate::initial(ctx.app(), ctx.platform());
  walk.push_back(current);
  while (!pairs.empty() && walk.size() < num_visits) {
    const auto [a, b] = pairs[rng.index(pairs.size())];
    if (!ctx.apply(core::SwapProcessPrioritiesMove{a, b}, current)) continue;
    walk.push_back(current);
  }
  return walk;
}

/// A walk over every move kind (the SA neighborhood): priority swaps stay
/// delta-eligible, TDMA resizes/swaps and TTC shifts force cold fallbacks.
std::vector<core::Candidate> make_mixed_walk(const core::MoveContext& ctx,
                                             std::size_t num_visits) {
  util::Rng rng(9311);
  std::vector<core::Candidate> walk;
  core::Candidate current = core::Candidate::initial(ctx.app(), ctx.platform());
  const core::Evaluation base_eval = ctx.evaluate_uncached(current);
  walk.push_back(current);
  while (walk.size() < num_visits) {
    const core::Move move = ctx.random_move(current, base_eval, rng);
    if (!ctx.apply(move, current)) continue;
    walk.push_back(current);
  }
  return walk;
}

/// One miss-path measurement: replays `walk` through evaluate_uncached
/// (no memoization anywhere) with the workspace's delta machinery set to
/// `mode`.  A fresh MoveContext per call so no base trajectory leaks
/// between modes.
ModeResult run_walk(const Instance& inst,
                    const std::vector<core::Candidate>& walk,
                    core::DeltaMode mode,
                    core::AnalysisKernel kernel = core::AnalysisKernel::Packed) {
  core::McsOptions options;
  options.analysis.kernel = kernel;
  const core::MoveContext ctx(inst.app, inst.platform, options);
  ctx.workspace().set_delta_mode(mode);
  ModeResult r;
  const bench::Stopwatch watch;
  for (const core::Candidate& cand : walk) {
    r.checksum += eval_checksum(ctx.evaluate_uncached(cand));
  }
  r.seconds = watch.seconds();
  r.evals_per_sec = static_cast<double>(walk.size()) / r.seconds;
  return r;
}

struct InstanceReport {
  std::string name;
  std::size_t processes = 0;
  std::size_t messages = 0;
  std::size_t visits = 0;
  ModeResult baseline, workspace, workspace_cache;
  ModeResult local_seed, local_full, local_delta;
  ModeResult mixed_seed, mixed_full, mixed_delta;
  double cache_hit_rate = 0.0;
  bool consistent = false;
};

InstanceReport run_instance(const Instance& inst, std::size_t num_visits) {
  InstanceReport report;
  report.name = inst.name;
  report.processes = inst.app.num_processes();
  report.messages = inst.app.num_messages();
  report.visits = num_visits;

  const core::MoveContext ctx(inst.app, inst.platform, core::McsOptions{});
  const auto visits = make_visits(ctx, num_visits);

  report.baseline = run_baseline(inst, visits);
  report.workspace = run_workspace(ctx, visits, /*cached=*/false);
  const auto hits_before = ctx.evaluation_cache().hits();
  const auto lookups_before =
      ctx.evaluation_cache().hits() + ctx.evaluation_cache().misses();
  report.workspace_cache = run_workspace(ctx, visits, /*cached=*/true);
  const auto lookups =
      ctx.evaluation_cache().hits() + ctx.evaluation_cache().misses() - lookups_before;
  report.cache_hit_rate =
      static_cast<double>(ctx.evaluation_cache().hits() - hits_before) /
      static_cast<double>(lookups);
  // Miss-path walks: delta vs full on identical visit sequences.  The
  // checksums double as a differential check over the whole walk.
  const auto local_walk = make_local_walk(ctx, num_visits);
  const auto mixed_walk = make_mixed_walk(ctx, num_visits);
  report.local_seed = run_walk(inst, local_walk, core::DeltaMode::Off,
                               core::AnalysisKernel::Reference);
  report.local_full = run_walk(inst, local_walk, core::DeltaMode::Off);
  report.local_delta = run_walk(inst, local_walk, core::DeltaMode::On);
  report.mixed_seed = run_walk(inst, mixed_walk, core::DeltaMode::Off,
                               core::AnalysisKernel::Reference);
  report.mixed_full = run_walk(inst, mixed_walk, core::DeltaMode::Off);
  report.mixed_delta = run_walk(inst, mixed_walk, core::DeltaMode::On);

  report.consistent = report.baseline.checksum == report.workspace.checksum &&
                      report.baseline.checksum == report.workspace_cache.checksum &&
                      report.local_seed.checksum == report.local_full.checksum &&
                      report.local_full.checksum == report.local_delta.checksum &&
                      report.mixed_seed.checksum == report.mixed_full.checksum &&
                      report.mixed_full.checksum == report.mixed_delta.checksum;

  std::printf(
      "%-14s %4zu procs %4zu msgs | baseline %9.0f/s | workspace %9.0f/s (%.2fx) "
      "| +cache %9.0f/s (%.2fx, %.0f%% hits) | miss-path local %.2fx vs seed "
      "(delta %.2fx) mixed %.2fx vs seed (delta %.2fx) | %s\n",
      inst.name.c_str(), report.processes, report.messages,
      report.baseline.evals_per_sec, report.workspace.evals_per_sec,
      report.workspace.evals_per_sec / report.baseline.evals_per_sec,
      report.workspace_cache.evals_per_sec,
      report.workspace_cache.evals_per_sec / report.baseline.evals_per_sec,
      100.0 * report.cache_hit_rate,
      report.local_delta.evals_per_sec / report.local_seed.evals_per_sec,
      report.local_delta.evals_per_sec / report.local_full.evals_per_sec,
      report.mixed_delta.evals_per_sec / report.mixed_seed.evals_per_sec,
      report.mixed_delta.evals_per_sec / report.mixed_full.evals_per_sec,
      report.consistent ? "results identical" : "RESULTS DIFFER");
  return report;
}

void append_mode(std::ofstream& out, const char* name, const ModeResult& mode,
                 bool trailing_comma) {
  out << "      \"" << name << "\": {\"seconds\": " << mode.seconds
      << ", \"evals_per_sec\": " << mode.evals_per_sec << "}"
      << (trailing_comma ? ",\n" : "\n");
}

/// Where BENCH_eval_throughput.json goes: MCS_BENCH_OUT_DIR if set,
/// otherwise the enclosing repository root (nearest ancestor of the CWD
/// containing .git), otherwise the CWD.  CI and local runs both land the
/// artifact at the repo root this way regardless of the build directory.
std::filesystem::path output_dir() {
  if (const char* dir = std::getenv("MCS_BENCH_OUT_DIR")) return dir;
  std::error_code ec;
  std::filesystem::path p = std::filesystem::current_path(ec);
  while (!ec && !p.empty()) {
    if (std::filesystem::exists(p / ".git", ec)) return p;
    const std::filesystem::path parent = p.parent_path();
    if (parent == p) break;
    p = parent;
  }
  return ".";
}

}  // namespace

int main() {
  std::size_t num_visits = 512;
  if (const char* s = std::getenv("MCS_BENCH_EVAL_VISITS")) {
    num_visits = std::max<std::size_t>(16, std::strtoul(s, nullptr, 10));
  }

  std::vector<Instance> instances;
  {
    auto ex = gen::make_paper_example();
    instances.push_back({"paper_example", std::move(ex.app), std::move(ex.platform)});
  }
  {
    gen::GeneratorParams p;
    p.tt_nodes = 2;
    p.et_nodes = 2;
    p.processes_per_node = 8;
    p.processes_per_graph = 16;
    p.wcet_min = 50;
    p.wcet_max = 400;
    p.seed = 97;
    auto sys = gen::generate(p);
    instances.push_back({"small_2x2", std::move(sys.app), std::move(sys.platform)});
  }
  if (std::getenv("MCS_BENCH_FULL") != nullptr) {
    gen::GeneratorParams p;
    p.tt_nodes = 3;
    p.et_nodes = 3;
    p.seed = 98;
    auto sys = gen::generate(p);
    instances.push_back({"paper_6x40", std::move(sys.app), std::move(sys.platform)});
  }

  std::vector<InstanceReport> reports;
  for (const Instance& inst : instances) {
    reports.push_back(run_instance(inst, num_visits));
  }

  std::ofstream out(output_dir() / "BENCH_eval_throughput.json");
  out << "{\n  \"bench\": \"eval_throughput\",\n  \"visits\": " << num_visits
      << ",\n  \"instances\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const InstanceReport& r = reports[i];
    out << "    {\n      \"name\": \"" << r.name << "\",\n      \"processes\": "
        << r.processes << ",\n      \"messages\": " << r.messages
        << ",\n      \"visits\": " << r.visits << ",\n";
    append_mode(out, "baseline", r.baseline, true);
    append_mode(out, "workspace", r.workspace, true);
    append_mode(out, "workspace_cache", r.workspace_cache, true);
    append_mode(out, "miss_local_seed", r.local_seed, true);
    append_mode(out, "miss_local_full", r.local_full, true);
    append_mode(out, "miss_local_delta", r.local_delta, true);
    append_mode(out, "miss_mixed_seed", r.mixed_seed, true);
    append_mode(out, "miss_mixed_full", r.mixed_full, true);
    append_mode(out, "miss_mixed_delta", r.mixed_delta, true);
    out << "      \"speedup_workspace\": "
        << r.workspace.evals_per_sec / r.baseline.evals_per_sec
        << ",\n      \"speedup_total\": "
        << r.workspace_cache.evals_per_sec / r.baseline.evals_per_sec
        << ",\n      \"speedup_local_vs_seed\": "
        << r.local_delta.evals_per_sec / r.local_seed.evals_per_sec
        << ",\n      \"speedup_mixed_vs_seed\": "
        << r.mixed_delta.evals_per_sec / r.mixed_seed.evals_per_sec
        << ",\n      \"speedup_delta_local\": "
        << r.local_delta.evals_per_sec / r.local_full.evals_per_sec
        << ",\n      \"speedup_delta_mixed\": "
        << r.mixed_delta.evals_per_sec / r.mixed_full.evals_per_sec
        << ",\n      \"cache_hit_rate\": " << r.cache_hit_rate
        << ",\n      \"consistent\": " << (r.consistent ? "true" : "false")
        << "\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  bool ok = true;
  for (const InstanceReport& r : reports) ok = ok && r.consistent;
  if (!ok) {
    std::fprintf(stderr, "eval_throughput: paths disagree — see above\n");
    return 1;
  }
  return 0;
}

// Resilience overhead bench: what do the fault-tolerance layers cost?
//
// Runs the same campaign twice — bare, then with the full resilience
// stack armed (crash-safe journaling + a watchdog deadline generous
// enough never to fire) — and reports the wall-clock overhead, which the
// design budget caps at 2% (DESIGN.md §6).  Both runs must produce the
// same report signature: the resilience layers are not allowed to touch
// any deterministic field.  A third phase measures crash RECOVERY speed:
// how long --resume spends re-reading and decoding journaled results,
// in milliseconds per 1000 records.
//
// Emits BENCH_resilience.json (a CI perf artifact).  Exits non-zero only
// on a signature mismatch — timing noise must not fail CI.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "bench_common.hpp"
#include "mcs/exp/journal.hpp"

using namespace mcs;

namespace {

double best_of(int rounds, const std::function<double()>& run) {
  double best = 0.0;
  for (int i = 0; i < rounds; ++i) {
    const double s = run();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
  const bench::Profile profile = bench::Profile::from_env();
  exp::CampaignSpec spec = profile.campaign_spec(
      "resilience", "tiny", {exp::Strategy::Sf, exp::Strategy::Os, exp::Strategy::Sas});
  // A sub-100ms campaign would drown the measurement in timer noise, and
  // the budget is defined against paper-scale jobs (seconds each, where
  // per-job costs like the fsync batches amortize).  Push the default
  // smoke profile toward that regime; MCS_BENCH_SEEDS / MCS_BENCH_SA_EVALS
  // still override for bigger sweeps.
  if (std::getenv("MCS_BENCH_SEEDS") == nullptr && spec.seeds_per_dim < 8) {
    spec.seeds_per_dim = 8;
  }
  if (std::getenv("MCS_BENCH_SA_EVALS") == nullptr &&
      spec.budgets.sa_max_evaluations < 2000) {
    spec.budgets.sa_max_evaluations = 2000;
  }
  const std::filesystem::path journal = "BENCH_resilience.journal";

  std::printf("Resilience overhead: bare campaign vs journal + watchdog\n\n");

  std::uint64_t bare_signature = 0;
  const double bare_s = best_of(3, [&] {
    bench::Stopwatch sw;
    const exp::CampaignResult result = exp::run_campaign(spec);
    bare_signature = result.signature();
    return sw.seconds();
  });

  // Full stack: every settled job journaled + fsynced, a watchdog thread
  // arming a (never-firing) 10-minute deadline around every attempt.
  exp::CampaignSpec resilient_spec = spec;
  resilient_spec.job_timeout_ms = 600'000;
  std::uint64_t resilient_signature = 0;
  const double resilient_s = best_of(3, [&] {
    exp::RunOptions options;
    options.journal_path = journal.string();
    bench::Stopwatch sw;
    const exp::CampaignResult result = exp::run_campaign(resilient_spec, options);
    resilient_signature = result.signature();
    return sw.seconds();
  });
  const double overhead_pct = bare_s > 0 ? (resilient_s / bare_s - 1.0) * 100.0 : 0.0;

  // Recovery speed: the resume path re-reads the journal and decodes every
  // record before any job runs.  Measure it on a synthetic journal large
  // enough to time reliably.
  constexpr std::size_t kRecoveryRecords = 5000;
  {
    exp::JobResult sample;
    sample.job_index = 1;
    sample.system_seed = 12345;
    sample.attempts = 1;
    sample.outcomes.resize(3);
    sample.error = "transient: allocation failure (std::bad_alloc)";
    const std::string payload = exp::encode_job_result(sample);
    exp::JournalWriter writer =
        exp::JournalWriter::create(journal, exp::JournalHeader{1, 42});
    for (std::size_t i = 0; i < kRecoveryRecords; ++i) writer.append(payload);
    writer.close();
  }
  const double recovery_s = best_of(3, [&] {
    bench::Stopwatch sw;
    const exp::JournalContents contents = exp::read_journal(journal);
    std::size_t decoded = 0;
    for (const std::string& record : contents.records) {
      decoded += exp::decode_job_result(record).job_index;
    }
    static volatile std::size_t sink;
    sink = decoded;  // keep the decode loop observable
    return sw.seconds();
  });
  const double recovery_ms_per_1k = recovery_s * 1000.0 * 1000.0 / kRecoveryRecords;
  std::error_code ec;
  std::filesystem::remove(journal, ec);

  const bool signatures_match = bare_signature == resilient_signature;
  std::printf("bare campaign        : %.3f s  (signature %016llx)\n", bare_s,
              static_cast<unsigned long long>(bare_signature));
  std::printf("journal + watchdog   : %.3f s  (signature %016llx)\n", resilient_s,
              static_cast<unsigned long long>(resilient_signature));
  std::printf("overhead             : %+.2f %%  (budget: < 2 %%)\n", overhead_pct);
  std::printf("journal recovery     : %.2f ms per 1000 records (%zu sampled)\n",
              recovery_ms_per_1k, kRecoveryRecords);

  std::ofstream out("BENCH_resilience.json");
  if (out) {
    out << "{\n  \"bench\": \"resilience\",\n"
        << "  \"bare_seconds\": " << bare_s << ",\n"
        << "  \"resilient_seconds\": " << resilient_s << ",\n"
        << "  \"overhead_pct\": " << overhead_pct << ",\n"
        << "  \"overhead_budget_pct\": 2.0,\n"
        << "  \"recovery_ms_per_1k_records\": " << recovery_ms_per_1k << ",\n"
        << "  \"recovery_records_sampled\": " << kRecoveryRecords << ",\n"
        << "  \"signatures_match\": " << (signatures_match ? "true" : "false")
        << "\n}\n";
    std::printf("wrote BENCH_resilience.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_resilience.json\n");
  }

  if (!signatures_match) {
    std::fprintf(stderr,
                 "resilience: journal + watchdog changed the report signature "
                 "— the resilience layers must not touch deterministic fields\n");
    return 1;
  }
  if (overhead_pct >= 2.0) {
    std::printf("note: overhead above the 2%% budget on this machine/run "
                "(informational; not a CI failure)\n");
  }
  return 0;
}

#include "mcs/exp/pipeline.hpp"

#include <cstdio>
#include <ostream>

#include "mcs/core/straightforward.hpp"
#include "mcs/exp/suite_driver.hpp"

namespace mcs::exp {

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::Sf: return "sf";
    case Strategy::Os: return "os";
    case Strategy::Or: return "or";
    case Strategy::Sas: return "sas";
    case Strategy::Sar: return "sar";
  }
  return "?";
}

Strategy parse_strategy(const std::string& name) {
  if (name == "sf") return Strategy::Sf;
  if (name == "os") return Strategy::Os;
  if (name == "or") return Strategy::Or;
  if (name == "sas") return Strategy::Sas;
  if (name == "sar") return Strategy::Sar;
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (expected sf, os, or, sas or sar)");
}

const char* to_string(RunState state) noexcept {
  switch (state) {
    case RunState::Done: return "done";
    case RunState::Timeout: return "timeout";
    case RunState::Failed: return "failed";
    case RunState::Pending: return "pending";
  }
  return "unknown";
}

core::McsOptions SpecBase::mcs_options() const {
  core::McsOptions options;
  options.analysis.offset_pruning = !conservative;
  options.analysis.ttp_queue_model =
      paper_ttp ? core::TtpQueueModel::PaperFormula : core::TtpQueueModel::Exact;
  options.analysis.kernel = core::kernel_from_env();
  return options;
}

void parse_spec(std::istream& in, const char* context, SpecBase& spec,
                const std::function<bool(const util::KvEntry&)>& kind_key) {
  for (const util::KvEntry& e : util::parse_kv(in, context)) {
    if (e.key == "name") {
      spec.name = e.value;
    } else if (e.key == "suite") {
      spec.suite = e.value;
    } else if (e.key == "seeds_per_dim") {
      spec.seeds_per_dim = static_cast<std::size_t>(util::kv_u64(e, context));
    } else if (e.key == "suite_base_seed") {
      spec.suite_base_seed = util::kv_u64(e, context);
    } else if (e.key == "campaign_seed") {
      spec.campaign_seed = util::kv_u64(e, context);
    } else if (e.key == "conservative") {
      spec.conservative = util::kv_bool(e, context);
    } else if (e.key == "paper_ttp") {
      spec.paper_ttp = util::kv_bool(e, context);
    } else if (e.key == "jobs") {
      spec.jobs = static_cast<std::size_t>(util::kv_u64(e, context));
    } else if (e.key == "job_timeout_ms") {
      // Retired: jobs are bounded by their budgets, not by a wall-clock
      // deadline.  Only the old default (off) still parses, so older
      // spec files that spell it out keep working.
      if (util::kv_u64(e, context) != 0) {
        util::kv_fail(context, e.line,
                      "job_timeout_ms is retired; only 0 is accepted");
      }
    } else if (e.key == "sa_max_evaluations") {
      spec.budgets.sa_max_evaluations = util::kv_int(e, context);
    } else if (e.key == "hopa_iterations") {
      spec.budgets.hopa_iterations = util::kv_int(e, context);
    } else if (e.key == "or_max_seed_starts") {
      spec.budgets.or_max_seed_starts = static_cast<std::size_t>(util::kv_u64(e, context));
    } else if (e.key == "or_max_climb_iterations") {
      spec.budgets.or_max_climb_iterations = util::kv_int(e, context);
    } else if (e.key == "or_neighbors_per_step") {
      spec.budgets.or_neighbors_per_step =
          static_cast<std::size_t>(util::kv_u64(e, context));
    } else if (!kind_key(e)) {
      util::kv_fail(context, e.line, "unknown key '" + e.key + "'");
    }
  }
}

Strategy spec_strategy(const util::KvEntry& e, const std::string& name,
                       const char* context) {
  try {
    return parse_strategy(name);
  } catch (const std::invalid_argument& err) {
    util::kv_fail(context, e.line, err.what());
  }
}

JobSynthesis::JobSynthesis(const gen::GeneratedSystem& sys, const SpecBase& spec)
    : ctx_(sys.app, sys.platform, spec.mcs_options()) {
  or_options_.schedule.hopa.max_iterations = spec.budgets.hopa_iterations;
  or_options_.max_seed_starts = spec.budgets.or_max_seed_starts;
  or_options_.max_climb_iterations = spec.budgets.or_max_climb_iterations;
  or_options_.neighbors_per_step = spec.budgets.or_neighbors_per_step;
}

StrategyRun JobSynthesis::step(Strategy strategy) {
  switch (strategy) {
    case Strategy::Sf: {
      auto sf = core::straightforward(ctx_);
      return {std::move(sf.candidate), std::move(sf.evaluation), 1, 0};
    }
    case Strategy::Os: {
      const auto& os =
          os_result_.emplace(core::optimize_schedule(ctx_, or_options_.schedule));
      return {os.best, os.best_eval, os.evaluations, 0};
    }
    case Strategy::Or: {
      auto orr = os_result_ ? core::optimize_resources(ctx_, *os_result_, or_options_)
                            : core::optimize_resources(ctx_, or_options_);
      return {std::move(orr.best), std::move(orr.best_eval), orr.evaluations,
              orr.s_total_before};
    }
    case Strategy::Sas:
    case Strategy::Sar:
      break;
  }
  throw std::invalid_argument("the synthesis step runs sf, os or or only");
}

void JobSynthesis::record_counters(JobRow& row, MetricsSnapshot& engine) const {
  row.delta_replays = ctx_.delta_stats().components_skipped;
  engine = engine_metrics(ctx_.workspace(), ctx_.mcs_options().analysis.kernel);
}

void sign(util::Fnv1a& h, const std::string& s) {
  h.update(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.update_byte(static_cast<std::uint8_t>(c));
}

void sign(util::Fnv1a& h, const JobRow& row) {
  h.update(static_cast<std::uint64_t>(row.job_index));
  h.update(row.system_seed);
  h.update(static_cast<std::uint64_t>(row.state));
}

void sign_spec(util::Fnv1a& h, const char* kind, const SpecBase& spec) {
  sign(h, kind);
  sign(h, spec.suite);
  h.update(static_cast<std::uint64_t>(spec.seeds_per_dim));
  h.update(spec.suite_base_seed);
  h.update(spec.campaign_seed);
  h.update(static_cast<std::uint64_t>(spec.conservative ? 1 : 0));
  h.update(static_cast<std::uint64_t>(spec.paper_ttp ? 1 : 0));
  h.update(static_cast<std::int64_t>(spec.budgets.sa_max_evaluations));
  h.update(static_cast<std::int64_t>(spec.budgets.hopa_iterations));
  h.update(static_cast<std::uint64_t>(spec.budgets.or_max_seed_starts));
  h.update(static_cast<std::int64_t>(spec.budgets.or_max_climb_iterations));
  h.update(static_cast<std::uint64_t>(spec.budgets.or_neighbors_per_step));
}

void write_row(RecordWriter& w, const JobRow& row) {
  w.u64(row.job_index);
  w.u64(row.dimension);
  w.u64(row.replica);
  w.u64(row.system_seed);
  w.u64(row.processes);
  w.u64(row.messages);
  w.u64(static_cast<std::uint64_t>(row.state));
  w.str(row.error);
  w.f64(row.seconds);
  w.u64(row.evals);
  w.u64(row.delta_replays);
}

void read_row(RecordReader& r, JobRow& row) {
  row.job_index = static_cast<std::size_t>(r.u64());
  row.dimension = static_cast<std::size_t>(r.u64());
  row.replica = static_cast<std::size_t>(r.u64());
  row.system_seed = r.u64();
  row.processes = static_cast<std::size_t>(r.u64());
  row.messages = static_cast<std::size_t>(r.u64());
  const std::uint64_t state = r.u64();
  if (state != static_cast<std::uint64_t>(RunState::Done) &&
      state != static_cast<std::uint64_t>(RunState::Timeout) &&
      state != static_cast<std::uint64_t>(RunState::Failed)) {
    throw JournalError("record holds invalid job state " + std::to_string(state));
  }
  row.state = static_cast<RunState>(state);
  row.error = r.str();
  row.seconds = r.f64();
  row.evals = r.u64();
  row.delta_replays = r.u64();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_json_spec_keys(std::ostream& out, const char* kind, const SpecBase& spec) {
  out << "{\n  \"" << kind << "\": \"" << json_escape(spec.name) << "\",\n"
      << "  \"suite\": \"" << json_escape(spec.suite) << "\",\n"
      << "  \"seeds_per_dim\": " << spec.seeds_per_dim << ",\n"
      << "  \"campaign_seed\": " << spec.campaign_seed << ",\n";
}

void write_json_run_keys(std::ostream& out, std::size_t workers, bool interrupted,
                         std::size_t resumed_jobs, double wall_seconds,
                         std::uint64_t signature) {
  out << "  \"workers\": " << workers << ",\n"
      << "  \"interrupted\": " << (interrupted ? "true" : "false") << ",\n"
      << "  \"resumed_jobs\": " << resumed_jobs << ",\n";
  char sig[32];
  std::snprintf(sig, sizeof sig, "%016llx", static_cast<unsigned long long>(signature));
  out << "  \"wall_seconds\": " << wall_seconds << ",\n"
      << "  \"signature\": \"" << sig << "\",\n";
}

void write_json_job_identity(std::ostream& out, const JobRow& row) {
  out << "    {\"job\": " << row.job_index << ", \"dimension\": " << row.dimension
      << ", \"replica\": " << row.replica << ", \"system_seed\": " << row.system_seed
      << ", \"processes\": " << row.processes << ", \"messages\": " << row.messages;
}

void write_json_job_metrics(std::ostream& out, const JobRow& row) {
  out << ", \"seconds\": " << row.seconds << ",\n     \"metrics\": {\"evals\": "
      << row.evals << ", \"delta_replays\": " << row.delta_replays << "},\n     ";
}

void write_csv_job_identity(std::ostream& out, const std::string& name,
                            const JobRow& row) {
  out << name << ',' << row.job_index << ',' << row.dimension << ',' << row.replica
      << ',' << row.system_seed << ',' << row.processes << ',' << row.messages;
}

void write_csv_job_metrics(std::ostream& out, const JobRow& row, double seconds) {
  out << ',' << row.evals << ',' << row.delta_replays
      << ',' << seconds << '\n';
}

}  // namespace mcs::exp

#include "mcs/exp/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <utility>

namespace mcs::exp {

std::uint64_t MetricValue::count() const {
  return std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
}

MetricsSnapshot engine_metrics(const core::AnalysisWorkspace& workspace,
                               core::AnalysisKernel kernel) {
  const core::DeltaStats& d = workspace.delta_stats();
  MetricsSnapshot s;
  for (const auto& [name, value] :
       {std::pair{"full_runs", d.full_runs}, {"delta_runs", d.delta_runs},
        {"fallbacks", d.fallbacks}, {"checked", d.checked},
        {"mismatches", d.mismatches},
        {"elided_iterations", d.elided_iterations},
        {"components_skipped", d.components_skipped},
        {"components_recomputed", d.components_recomputed},
        {"cand_cache_hits", d.cand_cache_hits},
        {"cand_cache_rebuilds", d.cand_cache_rebuilds},
        {"intra_skips", d.intra_skips}, {"iteration_skips", d.iteration_skips},
        {"p1_process_skips", d.p1_process_skips}}) {
    s[std::string("delta.") + name] = MetricValue::counter(value);
  }
  s[std::string("kernel.jobs.") + core::kernel_name(kernel)] = MetricValue::counter(1);
  const MetricValue runs{MetricValue::Kind::Histogram, 0,
                         {d.runs_by_iterations.begin(), d.runs_by_iterations.end()},
                         d.iterations};
  if (runs.count() > 0) s["mcs.iterations_per_run"] = runs;
  s["workspace.scratch_bytes_max"] = {MetricValue::Kind::Gauge,
                                      workspace.scratch_footprint_bytes(), {}, 0};
  return s;
}

void merge(MetricsSnapshot& into, const MetricsSnapshot& from) {
  for (const auto& [name, m] : from) {
    const auto [it, added] = into.try_emplace(name, m);
    if (added) continue;
    MetricValue& total = it->second;
    total.value = m.kind == MetricValue::Kind::Gauge ? std::max(total.value, m.value)
                                                     : total.value + m.value;
    for (std::size_t b = 0; b < m.buckets.size(); ++b) total.buckets[b] += m.buckets[b];
    total.sum += m.sum;
  }
}

void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out) {
  out << "{\n  \"metrics\": [\n";
  std::size_t i = 0;
  for (const auto& [name, m] : snapshot) {
    out << "    {\"name\": \"" << name << "\", ";
    switch (m.kind) {
      case MetricValue::Kind::Counter:
        out << "\"type\": \"counter\", \"value\": " << m.value;
        break;
      case MetricValue::Kind::Gauge:
        out << "\"type\": \"gauge\", \"value\": " << m.value;
        break;
      case MetricValue::Kind::Histogram:
        out << "\"type\": \"histogram\", \"count\": " << m.count()
            << ", \"sum\": " << m.sum << ", \"buckets\": [";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          out << (b ? ", " : "") << "{\"le\": ";
          if (b < core::kIterationBounds.size()) {
            out << core::kIterationBounds[b];
          } else {
            out << "\"inf\"";
          }
          out << ", \"count\": " << m.buckets[b] << "}";
        }
        out << "]";
        break;
    }
    out << "}" << (++i < snapshot.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace mcs::exp

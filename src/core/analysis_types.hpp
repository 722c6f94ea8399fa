// Shared vocabulary of the multi-cluster analysis: message routing
// classification, analysis options, and result structures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mcs/arch/platform.hpp"
#include "mcs/core/system_config.hpp"
#include "mcs/model/application.hpp"

namespace mcs::core {

/// How a message travels (paper §2.3 / §4.1).
enum class MessageRoute {
  Local,     ///< same node; communication time folded into the WCET
  TtToTt,    ///< TTP only, scheduled statically in the sender's slot
  EtToEt,    ///< OutNi queue -> CAN -> destination          (case 1)
  TtToEt,    ///< TTP -> gateway MBI -> T -> OutCAN -> CAN   (case 2)
  EtToTt,    ///< OutNi -> CAN -> gateway -> OutTTP -> S_G   (case 3)
};

[[nodiscard]] MessageRoute classify_route(const model::Application& app,
                                          const arch::Platform& platform,
                                          util::MessageId m);

[[nodiscard]] std::string to_string(MessageRoute route);

/// Model for the worst-case OutTTP queuing delay (see DESIGN.md §3).
enum class TtpQueueModel {
  /// Exact TDMA-calendar walk; reproduces the paper's worked example.
  Exact,
  /// The literal closed form of §4.1.2 — strictly more pessimistic.
  PaperFormula,
};

/// Which implementation runs the quadratic recurrence passes (ETC node
/// interference, CAN arbitration).  Both are bit-identical by contract;
/// `tests/core/soa_layout_test.cpp` enforces it.
enum class AnalysisKernel {
  /// Structure-of-arrays kernel: per-pool state gathered into contiguous
  /// parallel arrays with precomputed interference-pair classes, cached
  /// candidate lists and intra-run fixed-point skips (see DESIGN.md §2).
  Packed,
  /// The original scalar reference implementation, kept as the oracle
  /// baseline for differential tests.
  Reference,
};

/// Human-readable kernel name ("packed" / "reference").
[[nodiscard]] const char* kernel_name(AnalysisKernel kernel) noexcept;

struct AnalysisOptions {
  /// Precedence/offset-window pruning of impossible interference (needed
  /// to reproduce the w_m2 = w_m3 = 10 values of Figure 4a).  With false
  /// the analysis is the conservative textbook recurrence.
  bool offset_pruning = true;

  TtpQueueModel ttp_queue_model = TtpQueueModel::Exact;

  AnalysisKernel kernel = AnalysisKernel::Packed;

  /// Adds the gateway transfer process response time r_T to the OutTTP
  /// arrival of ETC->TTC messages.  The paper's worked example does not
  /// charge it on this direction (only on TTC->ETC); kept as an ablation
  /// knob.
  bool charge_transfer_on_et_to_tt = false;

  /// Abort limits; hitting them marks the result as not converged.
  int max_outer_iterations = 64;
  int max_recurrence_iterations = 20000;

  /// Number of activities whose recurrence had to be capped is reported
  /// in AnalysisResult::diverged_activities.
};

/// Field-wise equality; part of the delta-eligibility fingerprint (a
/// cached trajectory recorded under different options must never be
/// reused).
[[nodiscard]] constexpr bool same_options(const AnalysisOptions& a,
                                          const AnalysisOptions& b) noexcept {
  return a.offset_pruning == b.offset_pruning &&
         a.ttp_queue_model == b.ttp_queue_model && a.kernel == b.kernel &&
         a.charge_transfer_on_et_to_tt == b.charge_transfer_on_et_to_tt &&
         a.max_outer_iterations == b.max_outer_iterations &&
         a.max_recurrence_iterations == b.max_recurrence_iterations;
}

/// Worst-case buffer bounds in bytes (paper §4.1.1–4.1.2).
struct BufferBounds {
  std::int64_t out_can = 0;                     ///< gateway OutCAN (TTC->ETC)
  std::int64_t out_ttp = 0;                     ///< gateway OutTTP (ETC->TTC)
  std::map<util::NodeId, std::int64_t> out_node;  ///< OutNi per ETC node

  /// s_total (paper §5): the optimization objective of OptimizeResources.
  [[nodiscard]] std::int64_t total() const noexcept {
    std::int64_t t = out_can + out_ttp;
    for (const auto& [node, bytes] : out_node) t += bytes;
    return t;
  }
};

/// Everything the response time analysis produces.  Times are worst cases;
/// util::kTimeInfinity marks a diverged (unschedulable) activity.
struct AnalysisResult {
  bool converged = false;

  /// Derived offsets phi as used by the analysis: TT values mirror the
  /// static schedule, ET values are the earliest-release points computed
  /// from the inputs (see DESIGN.md §3).
  std::vector<util::Time> process_offsets;
  std::vector<util::Time> message_offsets;

  /// r_i measured from the activity's offset: r = J + w + C for ETC
  /// processes, r = C for TT processes.
  std::vector<util::Time> process_response;
  std::vector<util::Time> process_jitter;     ///< J_i
  std::vector<util::Time> process_interference;  ///< w_i (ETC only)

  /// Message response r_m = J_m + w_m + C_m measured from the message
  /// offset; for ET->TT it additionally includes the OutTTP drain and the
  /// TTP transmission leg.
  std::vector<util::Time> message_response;
  std::vector<util::Time> message_jitter;       ///< J_m
  std::vector<util::Time> message_queue_delay;  ///< w_m (CAN-side queuing)
  std::vector<util::Time> message_ttp_wait;     ///< OutTTP wait incl. S_G leg (ET->TT only)
  std::vector<std::int64_t> message_bytes_ahead;  ///< I_m in OutTTP (ET->TT only)

  /// Worst-case absolute availability O_m + r_m of each message (the
  /// instant the payload is in the destination's input buffer).
  std::vector<util::Time> message_delivery;

  /// R_Gi = max over sinks of (O_sink + r_sink).
  std::vector<util::Time> graph_response;

  BufferBounds buffers;

  int outer_iterations = 0;
  int diverged_activities = 0;  ///< recurrences clamped at the divergence cap

  [[nodiscard]] util::Time response_of(util::ProcessId p) const {
    return process_response.at(p.index());
  }
  [[nodiscard]] util::Time response_of(util::MessageId m) const {
    return message_response.at(m.index());
  }
};

/// True when every graph meets its deadline and every local deadline holds.
[[nodiscard]] bool is_schedulable(const model::Application& app,
                                  const AnalysisResult& result,
                                  const std::vector<util::Time>& process_offsets);

/// Exact (bitwise) equality over every reported quantity.  The delta
/// analysis promises results indistinguishable from a cold run; this is
/// the comparison the differential oracle and MCS_DELTA_CHECK use.  When
/// `why` is non-null a first-difference description is written on failure.
[[nodiscard]] bool bit_identical(const AnalysisResult& a, const AnalysisResult& b,
                                 std::string* why = nullptr);

}  // namespace mcs::core

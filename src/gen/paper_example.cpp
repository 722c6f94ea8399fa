#include "mcs/gen/paper_example.hpp"

namespace mcs::gen {

PaperExample make_paper_example() {
  // 1 time unit = 1 ms.  TTP: 1 byte per ms, no frame overhead, so a 20 ms
  // slot carries 20 bytes (m1 + m2 = 16 bytes pack into one S1 frame).
  // CAN: fixed 10 ms per frame regardless of payload (the paper's C_m).
  arch::TtpBusParams ttp{/*time_per_byte=*/1, /*frame_overhead=*/0};
  arch::CanBusParams can = arch::CanBusParams::linear(/*base=*/10, /*per_byte=*/0);

  // Every member is listed: the ids are assigned below.
  PaperExample ex{arch::Platform(ttp, can), model::Application{},
                  {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}};
  ex.n1 = ex.platform.add_tt_node("N1");
  ex.n2 = ex.platform.add_et_node("N2");
  ex.ng = ex.platform.add_gateway("NG");
  ex.platform.set_gateway_transfer({/*wcet=*/5, /*period=*/10});

  ex.g1 = ex.app.add_graph("G1", /*period=*/240, /*deadline=*/200);
  ex.p1 = ex.app.add_process(ex.g1, "P1", ex.n1, 30);
  ex.p2 = ex.app.add_process(ex.g1, "P2", ex.n2, 20);
  ex.p3 = ex.app.add_process(ex.g1, "P3", ex.n2, 20);
  ex.p4 = ex.app.add_process(ex.g1, "P4", ex.n1, 30);
  ex.m1 = ex.app.add_message(ex.p1, ex.p2, 8, "m1");
  ex.m2 = ex.app.add_message(ex.p1, ex.p3, 8, "m2");
  ex.m3 = ex.app.add_message(ex.p2, ex.p4, 8, "m3");
  return ex;
}

core::SystemConfig make_figure4_config(const PaperExample& ex,
                                       Figure4Variant variant) {
  const bool gateway_first =
      (variant == Figure4Variant::A || variant == Figure4Variant::C);
  const bool p2_high =
      (variant == Figure4Variant::C || variant == Figure4Variant::CSlotFirst);

  std::vector<arch::Slot> slots;
  const arch::Slot sg{ex.ng, 20};
  const arch::Slot s1{ex.n1, 20};
  if (gateway_first) {
    slots = {sg, s1};
  } else {
    slots = {s1, sg};
  }
  core::SystemConfig cfg(ex.app, arch::TdmaRound(std::move(slots),
                                                 ex.platform.ttp()));

  // Message priorities: priority(m1) > priority(m2) > priority(m3)
  // (smaller value = higher priority, CAN identifier convention).
  cfg.set_message_priority(ex.m1, 0);
  cfg.set_message_priority(ex.m2, 1);
  cfg.set_message_priority(ex.m3, 2);

  if (p2_high) {
    cfg.set_process_priority(ex.p2, 0);
    cfg.set_process_priority(ex.p3, 1);
  } else {
    cfg.set_process_priority(ex.p3, 0);
    cfg.set_process_priority(ex.p2, 1);
  }
  // TT processes do not use priorities; leave defaults.
  return cfg;
}

}  // namespace mcs::gen

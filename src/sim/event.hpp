// Deterministic discrete-event engine.
//
// A binary heap of plain typed events: events fire in (time, insertion
// sequence) order, so runs are bit-reproducible regardless of container
// internals.  An event is a small record (kind plus the activity, node and
// dispatch version it concerns); the simulator dispatches it with one
// switch, so scheduling an event allocates nothing beyond heap growth.
#pragma once

#include <cstdint>
#include <vector>

#include "mcs/util/time.hpp"

namespace mcs::sim {

using util::Time;

/// What an event does when it fires (see Sim::handle in simulator.cpp).
enum class EventKind : std::uint8_t {
  TtRelease,        ///< schedule-table release of TT process `id`
  TtInputCheck,     ///< same-instant re-check that TT process `id` has its inputs
  EtRelease,        ///< ET source process `id` released
  TtFinish,         ///< TT process `id` completes
  EtFinish,         ///< dispatch `version` of ET process `id` on `node` ends
  TtpDelivered,     ///< the TTP frame carrying message `id` lands
  GatewayTransfer,  ///< transfer process T moves message `id` into OutCAN
  CanArbitrate,     ///< deferred CAN arbitration
  BabbleEnd,        ///< the babbling idiot releases the CAN bus
  CanDone,          ///< the CAN frame of message `id` leaves the wire
  SgPack,           ///< the gateway slot S_G starts: drain OutTTP
  SgDelivered,      ///< message `id` delivered through S_G
};

struct Event {
  Time time = 0;
  std::uint64_t seq = 0;  ///< insertion sequence: the tie break at equal times
  EventKind kind = EventKind::TtRelease;
  std::uint32_t id = 0;       ///< process or message index
  std::uint32_t node = 0;     ///< node index (EtFinish)
  std::uint64_t version = 0;  ///< dispatch version (EtFinish)
};

class EventQueue {
public:
  /// Schedules an event at absolute time `t` (>= now).
  void schedule(Time t, EventKind kind, std::uint32_t id = 0,
                std::uint32_t node = 0, std::uint64_t version = 0);

  /// Removes the next event and advances now() to its time.  Requires a
  /// non-empty queue.
  [[nodiscard]] Event pop();

  /// Pops and hands events to `handle` until empty or `max_events` were
  /// handled; returns the number handled.  `handle` may schedule events.
  template <typename Handler>
  std::int64_t run(std::int64_t max_events, Handler&& handle) {
    std::int64_t executed = 0;
    while (executed < max_events && !empty()) {
      handle(pop());
      ++executed;
    }
    return executed;
  }

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Fire time of the next event, or kTimeInfinity when empty.
  [[nodiscard]] Time next_time() const noexcept {
    return heap_.empty() ? util::kTimeInfinity : heap_.front().time;
  }

private:
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
};

}  // namespace mcs::sim

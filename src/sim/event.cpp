#include "mcs/sim/event.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs::sim {

namespace {

/// Heap order: the root is the earliest event, ties by insertion.
struct Later {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::schedule(Time t, EventKind kind, std::uint32_t id,
                          std::uint32_t node, std::uint64_t version) {
  if (t < now_) throw std::invalid_argument("EventQueue::schedule: time in the past");
  heap_.push_back(Event{t, next_seq_++, kind, id, node, version});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Event EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event event = heap_.back();
  heap_.pop_back();
  now_ = event.time;
  return event;
}

}  // namespace mcs::sim

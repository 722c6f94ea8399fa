#include "mcs/sim/fault.hpp"

#include <fstream>
#include <stdexcept>

#include "mcs/util/hash.hpp"
#include "mcs/util/kv_parse.hpp"

namespace mcs::sim {

namespace {

constexpr const char* kContext = "fault spec";

[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t category) {
  util::Fnv1a h;
  h.update(seed);
  h.update(category);
  return h.digest();
}

}  // namespace

bool FaultSpec::any() const noexcept {
  return can_drop_p > 0.0 || can_delay_p > 0.0 || ttp_drop_p > 0.0 ||
         babble_p > 0.0 || tt_jitter_max > 0 || gateway_jitter_max > 0 ||
         bcet_frac < 1.0;
}

FaultSpec FaultSpec::scenario(const std::string& name, std::uint64_t seed) {
  FaultSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "drop") {
    spec.can_drop_p = 0.05;
    spec.ttp_drop_p = 0.02;
  } else if (name == "delay") {
    spec.can_delay_p = 0.2;
    spec.can_delay_max = 50;
  } else if (name == "babble") {
    spec.babble_p = 0.2;
    spec.babble_tx = 100;
  } else if (name == "drift") {
    spec.tt_jitter_max = 20;
    spec.gateway_jitter_max = 20;
  } else if (name == "exec") {
    spec.bcet_frac = 0.5;
  } else if (name == "storm") {
    spec.can_drop_p = 0.05;
    spec.can_delay_p = 0.1;
    spec.can_delay_max = 50;
    spec.ttp_drop_p = 0.02;
    spec.babble_p = 0.1;
    spec.babble_tx = 100;
    spec.tt_jitter_max = 10;
    spec.gateway_jitter_max = 10;
    spec.bcet_frac = 0.75;
  } else {
    throw std::invalid_argument("unknown fault scenario '" + name +
                                "' (expected drop, delay, babble, drift, "
                                "exec or storm)");
  }
  return spec;
}

const std::vector<std::string>& FaultSpec::scenario_names() {
  static const std::vector<std::string> names = {"drop",  "delay", "babble",
                                                 "drift", "exec",  "storm"};
  return names;
}

FaultSpec parse_fault_spec(std::istream& in) {
  FaultSpec spec;
  for (const util::KvEntry& e : util::parse_kv(in, kContext)) {
    if (e.key == "name") {
      spec.name = e.value;
    } else if (e.key == "seed") {
      spec.seed = util::kv_u64(e, kContext);
    } else if (e.key == "can_drop_p") {
      spec.can_drop_p = util::kv_unit_real(e, kContext);
    } else if (e.key == "can_max_retries") {
      spec.can_max_retries = util::kv_int(e, kContext);
    } else if (e.key == "can_delay_p") {
      spec.can_delay_p = util::kv_unit_real(e, kContext);
    } else if (e.key == "can_delay_max") {
      spec.can_delay_max = util::kv_time(e, kContext);
    } else if (e.key == "ttp_drop_p") {
      spec.ttp_drop_p = util::kv_unit_real(e, kContext);
    } else if (e.key == "ttp_max_retries") {
      spec.ttp_max_retries = util::kv_int(e, kContext);
    } else if (e.key == "babble_p") {
      spec.babble_p = util::kv_unit_real(e, kContext);
    } else if (e.key == "babble_tx") {
      spec.babble_tx = util::kv_time(e, kContext);
    } else if (e.key == "tt_jitter_max") {
      spec.tt_jitter_max = util::kv_time(e, kContext);
    } else if (e.key == "gateway_jitter_max") {
      spec.gateway_jitter_max = util::kv_time(e, kContext);
    } else if (e.key == "bcet_frac") {
      spec.bcet_frac = util::kv_unit_real(e, kContext);
    } else {
      util::kv_fail(kContext, e.line, "unknown key '" + e.key + "'");
    }
  }
  return spec;
}

FaultSpec parse_fault_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open fault spec: " + path);
  return parse_fault_spec(in);
}

FaultInjector::FaultInjector(const FaultSpec& spec) : spec_(spec) {
  if (spec.can_drop_p < 0.0 || spec.can_drop_p > 1.0 ||
      spec.can_delay_p < 0.0 || spec.can_delay_p > 1.0 ||
      spec.ttp_drop_p < 0.0 || spec.ttp_drop_p > 1.0 || spec.babble_p < 0.0 ||
      spec.babble_p > 1.0 || spec.bcet_frac < 0.0 || spec.bcet_frac > 1.0) {
    throw std::invalid_argument("fault spec '" + spec.name +
                                "': probabilities must lie in [0, 1]");
  }
  if (spec.babble_p > 0.0 && spec.babble_tx <= 0) {
    throw std::invalid_argument("fault spec '" + spec.name +
                                "': babble_p > 0 requires babble_tx > 0");
  }
}

util::Rng& FaultInjector::stream(Stream category) {
  std::optional<util::Rng>& rng = streams_[category];
  // Categories are numbered from 1 in the seed derivation.
  if (!rng) rng.emplace(stream_seed(spec_.seed, category + 1));
  return *rng;
}

util::Time FaultInjector::exec_time(util::Time wcet) {
  if (spec_.bcet_frac >= 1.0 || wcet <= 0) return wcet;
  const auto bcet = static_cast<util::Time>(
      static_cast<double>(wcet) * spec_.bcet_frac);
  const util::Time drawn = stream(kExec).uniform_int(bcet, wcet);
  if (drawn < wcet) ++counters.exec_variations;
  return drawn;
}

bool FaultInjector::corrupt_can_frame() {
  if (spec_.can_drop_p <= 0.0) return false;
  const bool corrupted = stream(kCan).bernoulli(spec_.can_drop_p);
  if (corrupted) ++counters.can_frames_dropped;
  return corrupted;
}

util::Time FaultInjector::can_extra_delay() {
  if (spec_.can_delay_p <= 0.0 || spec_.can_delay_max <= 0) return 0;
  if (!stream(kCan).bernoulli(spec_.can_delay_p)) return 0;
  ++counters.can_frames_delayed;
  return stream(kCan).uniform_int(1, spec_.can_delay_max);
}

int FaultInjector::ttp_round_losses() {
  if (spec_.ttp_drop_p <= 0.0) return 0;
  int losses = 0;
  while (losses <= spec_.ttp_max_retries &&
         stream(kTtp).bernoulli(spec_.ttp_drop_p)) {
    ++losses;
    ++counters.ttp_frames_dropped;
  }
  return losses;
}

bool FaultInjector::babble() {
  if (spec_.babble_p <= 0.0) return false;
  const bool seized = stream(kBabble).bernoulli(spec_.babble_p);
  if (seized) ++counters.babble_seizures;
  return seized;
}

util::Time FaultInjector::tt_release_jitter() {
  if (spec_.tt_jitter_max <= 0) return 0;
  const util::Time jitter = stream(kClock).uniform_int(0, spec_.tt_jitter_max);
  if (jitter > 0) ++counters.tt_jitter_events;
  return jitter;
}

util::Time FaultInjector::gateway_jitter() {
  if (spec_.gateway_jitter_max <= 0) return 0;
  const util::Time jitter = stream(kClock).uniform_int(0, spec_.gateway_jitter_max);
  if (jitter > 0) ++counters.gateway_jitter_events;
  return jitter;
}

}  // namespace mcs::sim

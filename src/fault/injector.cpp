#include "fault/injector.hpp"

namespace retri::fault {
namespace {

// Stream indices for the per-family splitmix64 derivation. Appending new
// families is fine; reordering would silently change every seeded run.
enum Stream : std::uint64_t {
  kBurst = 0,
  kCorrupt = 1,
  kTruncate = 2,
  kDuplicate = 3,
  kDelay = 4,
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mix(seed ^ (0xfa417'0000ULL + stream));
  return mix.next();
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             obs::Hooks hooks)
    : plan_(validated(plan)),
      burst_rng_(derive(seed, kBurst)),
      corrupt_rng_(derive(seed, kCorrupt)),
      truncate_rng_(derive(seed, kTruncate)),
      duplicate_rng_(derive(seed, kDuplicate)),
      delay_rng_(derive(seed, kDelay)),
      owned_metrics_(hooks.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()) {
  obs::MetricsRegistry& m =
      hooks.metrics != nullptr ? *hooks.metrics : *owned_metrics_;
  counters_.intercepted = m.counter("fault.intercepted");
  counters_.dropped_burst = m.counter("fault.dropped_burst");
  counters_.forwarded = m.counter("fault.forwarded");
  counters_.copies_emitted = m.counter("fault.copies_emitted");
  counters_.corrupted_copies = m.counter("fault.corrupted_copies");
  counters_.truncated_copies = m.counter("fault.truncated_copies");
  counters_.delayed_copies = m.counter("fault.delayed_copies");
}

FaultStatsSnapshot FaultInjector::stats() const noexcept {
  FaultStatsSnapshot s;
  s.intercepted = counters_.intercepted.value();
  s.dropped_burst = counters_.dropped_burst.value();
  s.forwarded = counters_.forwarded.value();
  s.copies_emitted = counters_.copies_emitted.value();
  s.corrupted_copies = counters_.corrupted_copies.value();
  s.truncated_copies = counters_.truncated_copies.value();
  s.delayed_copies = counters_.delayed_copies.value();
  return s;
}

bool FaultInjector::burst_lost(sim::NodeId from, sim::NodeId to) {
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  bool& bad = link_bad_[key];
  if (bad) {
    if (burst_rng_.chance(plan_.burst.p_bad_to_good)) bad = false;
  } else {
    if (burst_rng_.chance(plan_.burst.p_good_to_bad)) bad = true;
  }
  return burst_rng_.chance(bad ? plan_.burst.loss_bad : plan_.burst.loss_good);
}

void FaultInjector::corrupt(util::Bytes& frame) {
  bool changed = false;
  for (auto& byte : frame) {
    if (corrupt_rng_.chance(plan_.corrupt_byte_prob)) {
      byte ^= static_cast<std::uint8_t>(1 + corrupt_rng_.below(255));
      changed = true;
    }
  }
  if (!changed) {
    // Corruption must corrupt: flip a random nonzero mask into one byte.
    const std::size_t pos =
        static_cast<std::size_t>(corrupt_rng_.below(frame.size()));
    frame[pos] ^= static_cast<std::uint8_t>(1 + corrupt_rng_.below(255));
  }
}

void FaultInjector::intercept(sim::NodeId from, sim::NodeId to,
                              const util::SharedBytes& payload,
                              std::vector<Injected>& out) {
  counters_.intercepted.inc();

  if (plan_.burst.active() && burst_lost(from, to)) {
    counters_.dropped_burst.inc();
    return;
  }
  counters_.forwarded.inc();

  std::size_t copies = 1;
  if (plan_.duplicate_prob > 0.0 &&
      duplicate_rng_.chance(plan_.duplicate_prob)) {
    copies += 1 + static_cast<std::size_t>(
                      duplicate_rng_.below(plan_.max_duplicates));
  }

  for (std::size_t i = 0; i < copies; ++i) {
    Injected copy;
    copy.payload = payload;  // shares the buffer until a fault mutates it
    if (!copy.payload.empty() && plan_.truncate_prob > 0.0 &&
        truncate_rng_.chance(plan_.truncate_prob)) {
      copy.payload.mutable_bytes().resize(
          static_cast<std::size_t>(truncate_rng_.below(copy.payload.size())));
      counters_.truncated_copies.inc();
    }
    if (!copy.payload.empty() && plan_.corrupt_prob > 0.0 &&
        corrupt_rng_.chance(plan_.corrupt_prob)) {
      corrupt(copy.payload.mutable_bytes());
      counters_.corrupted_copies.inc();
    }
    if (plan_.delay_prob > 0.0 && plan_.max_delay.ns() > 0 &&
        delay_rng_.chance(plan_.delay_prob)) {
      copy.extra_delay = sim::Duration::nanoseconds(
          1 + static_cast<std::int64_t>(
                  delay_rng_.below(static_cast<std::uint64_t>(
                      plan_.max_delay.ns()))));
      counters_.delayed_copies.inc();
    }
    out.push_back(std::move(copy));
  }
  counters_.copies_emitted.inc(copies);
}

}  // namespace retri::fault

// Per-call replays of each layer's public functions, on inputs shaped by
// the workload (its identifier widths, 80-byte packets, its fan-out, an
// interleaved fragment stream of T concurrent transactions). Each replay
// warms up once, then reports the median of several timed batches and the
// exact heap allocations of one batch, per operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/selector.hpp"
#include "perf.hpp"
#include "util/alloc_hook.hpp"
#include "util/stopwatch.hpp"

namespace retri::perf {

struct Cost {
  double ns = 0.0;      // host ns per operation (median of batches)
  double allocs = 0.0;  // heap allocations per operation
};

/// The replay timer every layer shares: runs `batch` once to warm up, then
/// kBatches timed; `ops` operations per batch.
inline constexpr int kBatches = 5;
template <typename Batch>
Cost measure(std::uint64_t ops, Batch batch) {
  batch();
  std::vector<double> ns;
  double allocs = 0.0;
  for (int rep = 0; rep < kBatches; ++rep) {
    const std::uint64_t allocs_before = util::alloc_count();
    util::Stopwatch watch;
    batch();
    ns.push_back(watch.elapsed_ns() / static_cast<double>(ops));
    if (rep == 0) {
      allocs = static_cast<double>(util::alloc_count() - allocs_before) /
               static_cast<double>(ops);
    }
  }
  return {median(ns), allocs};
}

/// Simulator::schedule_after + firing, at jittered microsecond offsets.
Cost engine_event_cost();

/// One BroadcastMedium::transmit of a 27-byte frame to `nodes - 1`
/// listeners on the experiment's medium configuration, including the
/// Simulator events that deliver it.
Cost medium_tx_cost(std::size_t nodes);

/// The instrumented frame mix of 80-byte packets at `id_bits`: aff::encode_*
/// per frame, aff::decode per frame, Fragmenter::fragment per packet.
Cost wire_encode_cost(unsigned id_bits);
Cost wire_decode_cost(unsigned id_bits);
Cost fragmenter_cost(unsigned id_bits);

/// Reassembler::on_intro/on_data per fragment over an interleaved stream of
/// `concurrent` transactions whose identifiers are drawn at `id_bits`.
Cost reassembler_cost(unsigned id_bits, std::size_t concurrent);

/// util::crc32 host ns per byte over `bytes`-long buffers.
double crc32_ns_per_byte(std::size_t bytes);

/// IdSelector::select, each preceded by `observes_per_select` observe()
/// calls (the listening policies' workload), ns per select.
Cost selector_cost(const core::SelectorSpec& spec, unsigned id_bits,
                   double observes_per_select);

/// The 80-byte packet every simulation workload sends.
inline constexpr std::size_t kPacketBytes = 80;

}  // namespace retri::perf

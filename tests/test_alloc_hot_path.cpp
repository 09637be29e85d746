// Heap-allocation budget tests for the hot paths.
//
// This binary — and only this binary among the test targets — links
// src/util/alloc_hook.cpp (the counting operator-new replacement), so it
// can assert the refactor's core claim directly: once warmed up, the event
// engine schedules and fires without allocating at all, a broadcast fans
// one shared payload out to every listener instead of copying it per
// reception, and the AFF reassembler recycles its table slots instead of
// allocating per transaction. The pre-refactor baseline was 1 alloc/event
// on the engine and 22 allocs/transmit on a 5-listener fanout; the
// acceptance bar is >=2x
// fewer, and these bounds are far inside it. The counts are exact, so the
// budgets are plain tests, not a tolerance-gated benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "obs/metrics.hpp"
#include "runner/experiment.hpp"
#include "serve/codec.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"
#include "sim/topology.hpp"
#include "util/alloc_hook.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/random.hpp"

namespace {

using namespace retri;  // NOLINT: test file, brevity wins

constexpr int kOps = 1000;

TEST(AllocHook, CountingReplacementIsLinked) {
  ASSERT_TRUE(util::alloc_hook_active())
      << "src/util/alloc_hook.cpp is not linked into this binary; every "
         "other assertion in this file would vacuously pass";
}

TEST(AllocHotPath, MetricsRecordingIsAllocationFree) {
  // Registration may allocate (names, slots); recording through the
  // returned handles must not — that is what lets the instrumented sim
  // hot path keep every other budget in this file.
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("frames");
  obs::Gauge gauge = registry.gauge("pending");
  obs::Histogram histogram = registry.histogram("bytes", {16.0, 64.0, 256.0});
  const std::uint64_t before = util::alloc_count();
  for (int i = 0; i < kOps; ++i) {
    counter.inc();
    counter.inc(3);
    gauge.set(i);
    histogram.record(static_cast<double>(i));
  }
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "metric recording allocated in steady state";
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kOps) * 4);
}

TEST(AllocHotPath, EngineSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  auto batch = [&sim] {
    for (int i = 0; i < kOps; ++i) {
      sim.schedule_after(sim::Duration::microseconds(i), [] {});
    }
    sim.run();
  };
  batch();  // warmup: grow the slab and queue to capacity
  const std::uint64_t before = util::alloc_count();
  batch();
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "engine schedule+fire allocated in steady state";
}

TEST(AllocHotPath, EngineCancelPathIsAllocationFree) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> handles(kOps);
  auto batch = [&sim, &handles] {
    for (int i = 0; i < kOps; ++i) {
      handles[static_cast<std::size_t>(i)] =
          sim.schedule_after(sim::Duration::microseconds(i), [] {});
    }
    for (auto& h : handles) h.cancel();
    sim.run();
  };
  batch();
  const std::uint64_t before = util::alloc_count();
  batch();
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "engine schedule+cancel allocated in steady state";
}

// Interleaved schedule/cancel/step at skewed offsets — the ladder queue's
// worst case: near-future pushes into the current wheel lap, mid-range
// pushes several laps out, far-future pushes into the overflow rung, a
// third cancelled (stale-skip), a quarter fired mid-stream so the window
// keeps sliding through partially drained buckets. After one warm-up lap
// the next 1000-op batch allocates exactly twice. This is not yet a steady
// state: as the far-future rung rebases, laps 3-6 still regrow buckets
// (up to ~100 allocations) and a rare later lap allocates 2-4, so the
// budget pins the lap after the first.
TEST(AllocHotPath, EngineChurnMixedAfterWarmupLap) {
  sim::Simulator sim;
  util::Xoshiro256 rng(42);
  std::vector<sim::EventHandle> handles(kOps);
  auto batch = [&sim, &rng, &handles] {
    for (sim::EventHandle& handle : handles) {
      std::int64_t off_us;
      switch (rng.below(8)) {
        case 7:  // far future: overflow rung, forces periodic rebase
          off_us = 1'000'000 +
                   static_cast<std::int64_t>(rng.below(1'000'000));
          break;
        case 6:
        case 5:  // mid range: several wheel laps ahead
          off_us = 10'000 + static_cast<std::int64_t>(rng.below(10'000));
          break;
        default:  // near future: current lap
          off_us = static_cast<std::int64_t>(rng.below(1'000));
          break;
      }
      handle = sim.schedule_after(sim::Duration::microseconds(off_us), [] {});
      if (rng.below(3) == 0) handle.cancel();
      if (rng.below(4) == 0) sim.step();
    }
    sim.run();
  };
  batch();  // warmup: grow the slab, wheel buckets and overflow rung
  const std::uint64_t before = util::alloc_count();
  batch();
  EXPECT_LE(util::alloc_count() - before, 2u)
      << "engine churn allocated more than 2 in the lap after warm-up";
}

// One transmit: 1 alloc for the caller's payload copy into transmit() plus
// 1 for the shared buffer's control block, at every fan-out width and with
// RF-collision tracking off or on. Deliveries themselves (pooled Reception
// records, inline delivery closures, shared payload views) must not
// allocate. Baseline before the refactor: 22 at 5 listeners.
TEST(AllocHotPath, MediumFanoutSharesOnePayloadBuffer) {
  for (const std::size_t nodes : {std::size_t{5}, std::size_t{64}}) {
    for (const bool rf_collisions : {false, true}) {
      SCOPED_TRACE(testing::Message() << nodes << " nodes, rf_collisions="
                                      << rf_collisions);
      sim::Simulator sim;
      sim::MediumConfig config;
      config.rf_collisions = rf_collisions;
      sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(nodes),
                                  config, 1);
      const util::Bytes frame = util::random_payload(27, 1);
      auto batch = [&sim, &medium, &frame] {
        for (int i = 0; i < kOps; ++i) {
          medium.transmit(0, util::Bytes(frame),
                          sim::Duration::microseconds(100));
          sim.run();
        }
      };
      batch();  // warmup: reception pool + active lists reach capacity
      const std::uint64_t before = util::alloc_count();
      batch();
      EXPECT_LE(util::alloc_count() - before, std::uint64_t{2} * kOps)
          << "medium transmit fanout allocated more than the payload copy "
             "+ shared control block";
    }
  }
}

// The AFF receive path: 16 interleaved 80-byte transactions over 27-byte
// frames, one of them restarted by a conflicting introduction, all
// delivered. The warm-up lap sizes the entry slab, the key index and every
// slot's byte and coverage buffers; the next lap, under fresh keys that
// share the first lap's low 32 bits, must not allocate at all.
TEST(AllocHotPath, ReassemblerSteadyStateIsAllocationFree) {
  constexpr std::size_t kTxns = 16;
  constexpr std::size_t kPacketBytes = 80;
  const std::size_t chunk = 27 - aff::data_header_bytes(aff::WireConfig{});
  std::vector<util::Bytes> packets;
  for (std::size_t t = 0; t < kTxns; ++t) {
    packets.push_back(util::random_payload(kPacketBytes, 100 + t));
  }
  aff::Reassembler reassembler;
  std::size_t delivered_bytes = 0;
  reassembler.set_deliver([&delivered_bytes](std::uint64_t,
                                             const util::Bytes& packet) {
    delivered_bytes += packet.size();
  });
  sim::TimePoint now = sim::TimePoint::origin();
  auto lap = [&](std::uint64_t lap_index) {
    const std::uint64_t base = lap_index << 32;
    for (std::size_t t = 0; t < kTxns; ++t) {
      const std::uint32_t crc = util::crc32(packets[t]);
      if (t == 0) {
        // A stale announcement the real one restarts.
        reassembler.on_intro(base + t, kPacketBytes, crc ^ 1u, now);
      }
      reassembler.on_intro(base + t, kPacketBytes, crc, now);
    }
    for (std::size_t off = 0; off < kPacketBytes; off += chunk) {
      const std::size_t n = std::min(chunk, kPacketBytes - off);
      for (std::size_t t = 0; t < kTxns; ++t) {
        reassembler.on_data(base + t, static_cast<std::uint16_t>(off),
                            util::BytesView(packets[t].data() + off, n), now);
        now = now + sim::Duration::microseconds(100);
      }
    }
  };
  lap(0);  // warmup: slab, index and slot buffers reach capacity
  ASSERT_EQ(reassembler.stats().delivered, kTxns);
  ASSERT_EQ(reassembler.stats().conflicting_writes, 1u);
  const std::uint64_t before = util::alloc_count();
  lap(1);
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "reassembly allocated in steady state";
  EXPECT_EQ(reassembler.stats().delivered, 2 * kTxns);
  EXPECT_EQ(reassembler.stats().conflicting_writes, 2u);
  EXPECT_EQ(reassembler.pending_count(), 0u);
  EXPECT_EQ(delivered_bytes, 2 * kTxns * kPacketBytes);
}

TEST(AllocHotPath, SharedBytesClonesOnlyWhenSharedAndMutated) {
  util::SharedBytes payload{util::random_payload(64, 9)};
  const util::SharedBytes alias = payload;
  EXPECT_EQ(payload.use_count(), 2);

  // Reading never clones.
  const std::uint64_t before_read = util::alloc_count();
  EXPECT_EQ(alias.view().size(), 64u);
  EXPECT_EQ(util::alloc_count() - before_read, 0u);

  // Mutating while shared clones exactly once and detaches.
  payload.mutable_bytes()[0] ^= 0xff;
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(alias.use_count(), 1);
  EXPECT_NE(payload.bytes()[0], alias.bytes()[0]);

  // Mutating an unshared buffer allocates nothing.
  const std::uint64_t before_unshared = util::alloc_count();
  payload.mutable_bytes()[1] ^= 0xff;
  EXPECT_EQ(util::alloc_count() - before_unshared, 0u);
}

// A parsed document is one heap block — its node tape and its own copy of
// the text, escaped strings decoded in place — whatever the document's
// size: a real result body, the same body escaped into a string the way a
// cache entry stores it, and an array of eight bodies.
TEST(AllocHotPath, ParseJsonIsOneAllocationPerDocument) {
  runner::ExperimentConfig config;
  config.senders = 3;
  config.send_duration = sim::Duration::seconds(2);
  const std::string body =
      serve::encode_result(runner::run_experiment(config));
  util::JsonWriter writer(/*pretty=*/false);
  writer.begin_object().member("body", body).end_object();
  const std::string escaped = std::move(writer).take();
  std::string eight = "[" + body;
  for (int i = 1; i < 8; ++i) eight += "," + body;
  eight += "]";

  for (const std::string& text : {body, escaped, eight}) {
    const std::uint64_t before = util::alloc_count();
    const auto doc = util::parse_json(text);
    const std::uint64_t allocs = util::alloc_count() - before;
    ASSERT_TRUE(doc.ok()) << doc.error().describe();
    EXPECT_EQ(allocs, 1u) << "parsing " << text.size() << " bytes";
  }
}

}  // namespace

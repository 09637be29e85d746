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
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "aff/driver.hpp"
#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "core/selector.hpp"
#include "fault/attacker.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "radio/radio.hpp"
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

// One transmit of a caller-owned vector costs exactly the caller's copy:
// transmit(Bytes) adopts the vector into a pooled buffer, so there is no
// control block. A frame encoded into the medium's frame pool costs
// nothing at all — at every fan-out width and with RF-collision tracking
// off or on. Deliveries themselves (pooled reception records, inline
// delivery closures, the one shared buffer) never allocate. Baseline before
// the shared payload: 22 at 5 listeners.
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
      std::size_t heard = 0;
      for (sim::NodeId node = 0; node < nodes; ++node) {
        medium.attach(node, [&heard](sim::NodeId, const util::Bytes& f) {
          heard += f.size();
        });
      }
      const util::Bytes frame = util::random_payload(27, 1);
      auto copied = [&sim, &medium, &frame] {
        for (int i = 0; i < kOps; ++i) {
          medium.transmit(0, util::Bytes(frame),
                          sim::Duration::microseconds(100));
          sim.run();
        }
      };
      auto pooled = [&sim, &medium, &frame] {
        for (int i = 0; i < kOps; ++i) {
          util::SharedBytes payload = medium.frame_pool().acquire();
          payload.mutable_bytes().assign(frame.begin(), frame.end());
          medium.transmit(0, std::move(payload),
                          sim::Duration::microseconds(100));
          sim.run();
        }
      };
      copied();  // warmup: reception pool + active lists reach capacity
      pooled();
      const std::uint64_t before_copied = util::alloc_count();
      copied();
      EXPECT_EQ(util::alloc_count() - before_copied,
                static_cast<std::uint64_t>(kOps))
          << "transmit(Bytes) allocated beyond the caller's payload copy";
      const std::uint64_t before_pooled = util::alloc_count();
      pooled();
      EXPECT_EQ(util::alloc_count() - before_pooled, 0u)
          << "a pooled frame's transmit and fan-out allocated";
      EXPECT_EQ(heard, 4 * static_cast<std::size_t>(kOps) * 27 * (nodes - 1));
    }
  }
}

// The whole send path of one AFF packet: listening id selection, fragment
// encoding straight into pooled frames, the radio's ring queue, transmit,
// fan-out, and decode plus reassembly at both receivers. After a warm-up
// lap the next 16 packets allocate nothing.
TEST(AllocHotPath, AffSendPathIsAllocationFree) {
  constexpr std::size_t kNodes = 3;
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(kNodes),
                              sim::MediumConfig{}, 1);
  aff::AffDriverConfig config;
  config.wire.id_bits = 8;
  config.wire.instrumented = true;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<core::IdSelector>> selectors;
  std::vector<std::unique_ptr<aff::AffDriver>> drivers;
  for (sim::NodeId node = 0; node < kNodes; ++node) {
    radios.push_back(std::make_unique<radio::Radio>(
        medium, node, radio::RadioConfig{}, radio::EnergyModel::rpc_like(),
        10 + node));
    selectors.push_back(core::make_selector(core::listening_selector(),
                                            core::IdSpace(8), 20 + node));
    drivers.push_back(std::make_unique<aff::AffDriver>(
        *radios.back(), *selectors.back(), config, node));
  }
  std::size_t delivered = 0;
  drivers[1]->set_packet_handler(
      [&delivered](const util::Bytes& packet) { delivered += packet.size(); });
  const util::Bytes packet = util::random_payload(80, 3);
  auto lap = [&] {
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(drivers[0]->send_packet(packet));
      sim.run();
    }
  };
  lap();  // warmup: frame pool, ring queues, reassembly slots, windows
  const std::uint64_t before = util::alloc_count();
  lap();
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "sending a packet through driver, radio and medium allocated";
  EXPECT_EQ(delivered, 32 * packet.size());
}

// Every delivery through the attacker's interception seam, alone and
// chained over a FaultInjector that drops, duplicates, truncates, corrupts
// and delays: the copies go into the medium's reused buffer, corrupted
// copies clone into pooled frames, and the echoed forgeries the attacker
// sends are encoded into pooled frames too.
TEST(AllocHotPath, InterceptedDeliveryIsAllocationFree) {
  for (const bool chained : {false, true}) {
    SCOPED_TRACE(chained ? "attacker over FaultInjector" : "attacker alone");
    sim::Simulator sim;
    sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(3),
                                sim::MediumConfig{}, 1);
    fault::FaultPlan plan;
    plan.burst.p_good_to_bad = 0.05;
    plan.burst.p_bad_to_good = 0.5;
    plan.duplicate_prob = 0.3;
    plan.max_duplicates = 2;
    plan.truncate_prob = 0.1;
    plan.corrupt_prob = 0.2;
    plan.delay_prob = 0.3;
    plan.max_delay = sim::Duration::milliseconds(2);
    fault::FaultInjector injector(plan, 7);
    aff::WireConfig wire;
    wire.id_bits = 8;
    fault::AttackerPlan attack;
    attack.mode = fault::AttackerMode::kEchoCollide;
    fault::AttackerNode attacker(medium, 2, attack, wire, 11);
    if (chained) attacker.set_inner(&injector);
    medium.set_interceptor(&attacker);
    attacker.start(sim::TimePoint::origin() + sim::Duration::seconds(3600));
    std::size_t heard = 0;
    medium.attach(1, [&heard](sim::NodeId, const util::Bytes& frame) {
      heard += frame.size();
    });
    const aff::IntroFragment intro{core::TransactionId(5), 80, 0x1234u};
    auto lap = [&] {
      for (int i = 0; i < 64; ++i) {
        util::SharedBytes frame = medium.frame_pool().acquire();
        aff::encode_intro_into(wire, intro, std::nullopt,
                               frame.mutable_bytes());
        medium.transmit(0, std::move(frame), sim::Duration::microseconds(500));
        sim.run();
      }
    };
    // Warm-up: the interception buffer, frame pool and link states grow in
    // the first lap. The delayed copies also scatter over the event queue's
    // ladder buckets, which regrow a vector at each new peak of live
    // buckets (5 and 2 allocations in the chained case's second and fifth
    // laps, none after; EngineChurnMixedAfterWarmupLap holds the engine's
    // own budget).
    for (int i = 0; i < 5; ++i) lap();
    const std::uint64_t echoes = attacker.stats().echoes_sent;
    const std::uint64_t before = util::alloc_count();
    lap();
    EXPECT_EQ(util::alloc_count() - before, 0u)
        << "an intercepted delivery allocated";
    EXPECT_GT(attacker.stats().echoes_sent, echoes);
    EXPECT_GT(heard, 0u);
  }
}

// The listening window's flat storage: rings, the open-addressing count
// table and, at H = 6, the rank-select bitmap. Once a lap has grown them
// to the window's size, observe, notify, set_density and select allocate
// nothing, for the listening and the hybrid selector, on both sides of the
// bitmap limit.
TEST(AllocHotPath, ListeningAndHybridWindowsAreAllocationFree) {
  for (const unsigned bits : {6u, 16u}) {
    for (core::SelectorSpec spec :
         {core::listening_selector(true), core::hybrid_selector()}) {
      spec.listening.heed_notifications = true;
      SCOPED_TRACE(testing::Message()
                   << core::describe(spec) << " H=" << bits);
      const core::IdSpace space(bits);
      const auto selector = core::make_selector(spec, space, 9);
      std::uint64_t sink = 0;
      auto lap = [&] {
        util::Xoshiro256 ops(77);
        for (int i = 0; i < kOps; ++i) {
          selector->observe(space.clamp(ops.next()));
          if (i % 7 == 0) selector->notify_collision(space.clamp(ops.next()));
          if (i % 50 == 0) selector->set_density(1.0 + (i / 50) % 12);
          sink += selector->select().value();
        }
      };
      lap();  // warmup: rings and count table reach the widest window
      const std::uint64_t before = util::alloc_count();
      lap();
      EXPECT_EQ(util::alloc_count() - before, 0u)
          << "listening window allocated in steady state";
      EXPECT_GT(sink, 0u);
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

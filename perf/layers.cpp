#include "layers.hpp"

#include <algorithm>
#include <variant>
#include <vector>

#include "aff/fragmenter.hpp"
#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "perf.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"
#include "sim/topology.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace retri::perf {
namespace {

constexpr std::uint64_t kReplaySeed = 0x5eed'0f'1a7e5ULL;

// Keeps replay results observable so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

aff::FragmenterConfig fragmenter_config(unsigned id_bits) {
  aff::FragmenterConfig config;
  config.wire.id_bits = id_bits;
  config.wire.instrumented = true;
  return config;
}

/// Frames of `packets` 80-byte packets with random ids, in send order.
std::vector<util::Bytes> frame_stream(unsigned id_bits, std::size_t packets) {
  const aff::Fragmenter fragmenter(fragmenter_config(id_bits));
  const core::IdSpace space(id_bits);
  util::Xoshiro256 rng(kReplaySeed ^ id_bits);
  std::vector<util::Bytes> frames;
  for (std::size_t p = 0; p < packets; ++p) {
    const util::Bytes packet = util::random_payload(kPacketBytes, rng.next());
    auto out = fragmenter.fragment(packet, space.clamp(rng.next()), p);
    for (util::Bytes& frame : out.value()) frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace

Cost engine_event_cost() {
  constexpr std::uint64_t kEvents = 20000;
  sim::Simulator sim;
  util::Xoshiro256 rng(kReplaySeed);
  std::vector<std::int64_t> offsets(kEvents);
  for (std::int64_t& off : offsets) {
    off = static_cast<std::int64_t>(rng.below(2000));
  }
  return measure(kEvents, [&] {
    for (const std::int64_t off : offsets) {
      sim.schedule_after(sim::Duration::microseconds(off),
                         [] { g_sink = g_sink + 1; });
    }
    sim.run();
  });
}

Cost medium_tx_cost(std::size_t nodes) {
  constexpr std::uint64_t kTx = 4000;
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(nodes),
                              sim::MediumConfig{}, kReplaySeed);
  for (sim::NodeId node = 0; node < nodes; ++node) {
    medium.attach(node, [](sim::NodeId, const util::Bytes& frame) {
      g_sink = g_sink + frame.size();
    });
  }
  const util::Bytes frame = util::random_payload(27, kReplaySeed);
  return measure(kTx, [&] {
    for (std::uint64_t i = 0; i < kTx; ++i) {
      medium.transmit(static_cast<sim::NodeId>(i % nodes), util::Bytes(frame),
                      sim::Duration::microseconds(200));
      sim.run();
    }
  });
}

Cost wire_encode_cost(unsigned id_bits) {
  const aff::WireConfig wire = fragmenter_config(id_bits).wire;
  std::vector<aff::DecodedFragment> decoded;
  for (const util::Bytes& frame : frame_stream(id_bits, 2000)) {
    decoded.push_back(*aff::decode(wire, frame));
  }
  return measure(decoded.size(), [&] {
    for (const aff::DecodedFragment& f : decoded) {
      const util::Bytes out =
          std::holds_alternative<aff::IntroFragment>(f.body)
              ? aff::encode_intro(wire, std::get<aff::IntroFragment>(f.body),
                                  f.true_packet_id)
              : aff::encode_data(wire, std::get<aff::DataFragment>(f.body),
                                 f.true_packet_id);
      g_sink = g_sink + out.size();
    }
  });
}

Cost wire_decode_cost(unsigned id_bits) {
  const aff::WireConfig wire = fragmenter_config(id_bits).wire;
  const std::vector<util::Bytes> frames = frame_stream(id_bits, 2000);
  return measure(frames.size(), [&] {
    for (const util::Bytes& frame : frames) {
      const auto decoded = aff::decode(wire, frame);
      g_sink = g_sink + decoded->id().value();
    }
  });
}

Cost fragmenter_cost(unsigned id_bits) {
  constexpr std::size_t kPackets = 2000;
  const aff::Fragmenter fragmenter(fragmenter_config(id_bits));
  const core::IdSpace space(id_bits);
  util::Xoshiro256 rng(kReplaySeed);
  std::vector<util::Bytes> packets;
  std::vector<core::TransactionId> ids;
  for (std::size_t p = 0; p < kPackets; ++p) {
    packets.push_back(util::random_payload(kPacketBytes, rng.next()));
    ids.push_back(space.clamp(rng.next()));
  }
  return measure(kPackets, [&] {
    for (std::size_t p = 0; p < kPackets; ++p) {
      const auto frames = fragmenter.fragment(packets[p], ids[p], p);
      g_sink = g_sink + frames.value().size();
    }
  });
}

Cost reassembler_cost(unsigned id_bits, std::size_t concurrent) {
  // Interleave the frames of `concurrent` in-flight packets round-robin,
  // as the receiver hears them when that many senders overlap; identical
  // ids collide exactly as on the air.
  constexpr std::size_t kPacketsPerSender = 400;
  const aff::WireConfig wire = fragmenter_config(id_bits).wire;
  const aff::Fragmenter fragmenter(fragmenter_config(id_bits));
  const core::IdSpace space(id_bits);
  util::Xoshiro256 rng(kReplaySeed ^ (id_bits * 131 + concurrent));
  std::vector<std::vector<util::Bytes>> per_sender(concurrent);
  for (std::size_t s = 0; s < concurrent; ++s) {
    for (std::size_t p = 0; p < kPacketsPerSender; ++p) {
      const util::Bytes packet =
          util::random_payload(kPacketBytes, rng.next());
      auto frames = fragmenter.fragment(packet, space.clamp(rng.next()),
                                        s * kPacketsPerSender + p);
      for (util::Bytes& f : frames.value()) {
        per_sender[s].push_back(std::move(f));
      }
    }
  }
  std::vector<util::Bytes> stream;
  for (std::size_t i = 0; i < per_sender[0].size(); ++i) {
    for (std::size_t s = 0; s < concurrent; ++s) {
      stream.push_back(per_sender[s][i]);
    }
  }
  std::vector<aff::DecodedFragment> decoded;
  for (const util::Bytes& frame : stream) {
    decoded.push_back(*aff::decode(wire, frame));
  }
  // decoded[] views into stream[]; both live until the function returns.
  return measure(decoded.size(), [&] {
    aff::Reassembler reassembler;
    reassembler.set_deliver([](std::uint64_t key, const util::Bytes& p) {
      g_sink = g_sink + key + p.size();
    });
    sim::TimePoint now = sim::TimePoint::origin();
    for (const aff::DecodedFragment& f : decoded) {
      now = now + sim::Duration::microseconds(500);
      const std::uint64_t key = f.id().value();
      if (const auto* intro = std::get_if<aff::IntroFragment>(&f.body)) {
        reassembler.on_intro(key, intro->total_len, intro->checksum, now);
      } else if (const auto* data = std::get_if<aff::DataFragment>(&f.body)) {
        reassembler.on_data(key, data->offset, data->payload, now);
      }
    }
  });
}

double crc32_ns_per_byte(std::size_t bytes) {
  constexpr std::size_t kBuffers = 64;
  constexpr std::size_t kCalls = 20000;
  std::vector<util::Bytes> buffers;
  for (std::size_t b = 0; b < kBuffers; ++b) {
    buffers.push_back(util::random_payload(bytes, kReplaySeed + b));
  }
  const Cost cost = measure(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      g_sink = g_sink + util::crc32(buffers[i % kBuffers]);
    }
  });
  return cost.ns / static_cast<double>(bytes);
}

Cost selector_cost(const core::SelectorSpec& spec, unsigned id_bits,
                   double observes_per_select) {
  constexpr std::uint64_t kSelects = 5000;
  const core::IdSpace space(id_bits);
  auto selector = core::make_selector(spec, space, kReplaySeed);
  util::Xoshiro256 rng(kReplaySeed ^ id_bits);
  // Heard ids are drawn ahead so the timed loop holds only selector calls.
  const auto observes = static_cast<std::size_t>(
      std::clamp(observes_per_select, 0.0, 16.0) * kSelects);
  std::vector<core::TransactionId> heard(observes);
  for (core::TransactionId& id : heard) id = space.clamp(rng.next());
  return measure(kSelects, [&] {
    std::size_t h = 0;
    for (std::uint64_t i = 0; i < kSelects; ++i) {
      const std::size_t until = (i + 1) * observes / kSelects;
      for (; h < until; ++h) selector->observe(heard[h]);
      g_sink = g_sink + selector->select().value();
    }
  });
}

}  // namespace retri::perf

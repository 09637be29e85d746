#include "runner/experiment.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "aff/driver.hpp"
#include "util/validate.hpp"
#include "apps/workload.hpp"
#include "core/selector.hpp"
#include "fault/attacker.hpp"
#include "fault/churn.hpp"
#include "fault/injector.hpp"
#include "radio/duty_cycle.hpp"
#include "radio/radio.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"
#include "sim/topology.hpp"

namespace retri::runner {
namespace {

/// Mean Gilbert–Elliott bad-state dwell for the "burst" channel, in
/// deliveries. Chosen so a typical burst swallows a whole multi-fragment
/// packet rather than scattering independent frame losses.
constexpr double kBurstMeanLength = 5.0;

/// GE plan with loss_bad=1, loss_good=0 whose stationary average equals
/// `loss_rate` — the "same average, correlated arrangement" counterpart of
/// independent loss the ablation compares against.
fault::FaultPlan burst_plan(double loss_rate) {
  fault::FaultPlan plan;
  if (loss_rate <= 0.0) return plan;
  const double pi_bad = std::fmin(loss_rate, 0.95);
  plan.burst.loss_bad = 1.0;
  plan.burst.loss_good = 0.0;
  plan.burst.p_bad_to_good = 1.0 / kBurstMeanLength;
  plan.burst.p_good_to_bad =
      pi_bad * plan.burst.p_bad_to_good / (1.0 - pi_bad);
  return plan;
}

/// The fixed hostile plan behind the "chaos" channel: burst loss at the
/// configured average plus mild corruption, duplication, delay jitter,
/// and sender churn. Fixed (not randomized) so sweep points stay
/// comparable across axes; the randomized soak lives in fault::chaos.
fault::FaultPlan chaos_plan(double loss_rate) {
  fault::FaultPlan plan = burst_plan(loss_rate <= 0.0 ? 0.1 : loss_rate);
  plan.corrupt_prob = 0.05;
  plan.corrupt_byte_prob = 0.05;
  plan.truncate_prob = 0.03;
  plan.duplicate_prob = 0.05;
  plan.max_duplicates = 2;
  plan.delay_prob = 0.2;
  plan.max_delay = sim::Duration::milliseconds(20);
  plan.churn.mean_uptime = sim::Duration::seconds(4);
  plan.churn.mean_downtime = sim::Duration::milliseconds(500);
  return plan;
}

/// The attacker occupies the node id one past the last sender, so victim
/// node numbering (receiver 0, senders 1..N) is identical with and without
/// an attacker and the per-node seed streams never shift.
sim::NodeId attacker_node(const ExperimentConfig& config) {
  return static_cast<sim::NodeId>(config.senders + 1);
}

sim::Topology make_topology(const ExperimentConfig& config) {
  const bool attacked = config.attacker.active();
  switch (config.topology) {
    case TopologyKind::kStarFullMesh:
      // An attacker in the full-mesh testbed is just one more node in
      // range of everyone.
      return attacked ? sim::Topology::full_mesh(config.senders + 2)
                      : sim::Topology::star_full_mesh(config.senders);
    case TopologyKind::kHiddenTerminal: {
      if (!attacked) return sim::Topology::hidden_terminal(config.senders);
      // Hidden-terminal senders stay mutually inaudible, but the attacker
      // is positioned to hear (and reach) every node — the worst case for
      // the victims: their listening heuristic cannot see each other, yet
      // the adversary sees all of them.
      sim::Topology topo(config.senders + 2);
      const sim::NodeId atk = attacker_node(config);
      for (std::size_t i = 1; i <= config.senders; ++i) {
        topo.add_bidi(0, static_cast<sim::NodeId>(i));
      }
      for (sim::NodeId node = 0; node < atk; ++node) topo.add_bidi(atk, node);
      return topo;
    }
  }
  return sim::Topology::star_full_mesh(config.senders);
}

}  // namespace

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kStarFullMesh: return "star_full_mesh";
    case TopologyKind::kHiddenTerminal: return "hidden_terminal";
  }
  return "?";
}

ExperimentConfig validated(ExperimentConfig config) {
  util::Validator v{"ExperimentConfig"};
  v.at_least("senders", config.senders, 1);
  v.in_range("id_bits", config.id_bits, 1, 64);
  v.at_least("packet_bytes", config.packet_bytes, 1);
  for (const std::size_t bytes : config.per_sender_packet_bytes) {
    v.at_least("per_sender_packet_bytes[]", bytes, 1);
  }
  v.positive_seconds("send_duration", config.send_duration.to_seconds());
  v.non_negative_seconds("drain_extra", config.drain_extra.to_seconds());
  v.non_negative_seconds("tx_jitter", config.tx_jitter.to_seconds());
  v.probability("sender_listen_duty", config.sender_listen_duty);
  v.positive_seconds("duty_period", config.duty_period.to_seconds());
  v.probability("loss_rate", config.loss_rate);
  if (config.channel != "independent" && config.channel != "burst" &&
      config.channel != "chaos") {
    v.fail_bare("channel", "be independent | burst | chaos, got \"" +
                               config.channel + "\"");
  }
  core::validated(config.selector);
  fault::validated(config.attacker);
  return config;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                obs::SpanRecorder* spans) {
  validated(config);  // reject bad knobs before any component exists
  const bool burst_channel = config.channel == "burst";
  const bool chaos_channel = config.channel == "chaos";

  // One registry per trial: every component below registers its metrics
  // here in construction order, which is what makes the final snapshot
  // deterministic and jobs-invariant.
  obs::MetricsRegistry registry;
  const obs::Hooks hooks{&registry, spans};

  sim::Simulator sim;
  sim::MediumConfig medium_config;
  if (!burst_channel && !chaos_channel) {
    medium_config.per_link_loss = config.loss_rate;
  }
  sim::BroadcastMedium medium(sim, make_topology(config), medium_config,
                              config.seed, hooks);

  // Fault-layer channels route loss_rate through a FaultInjector instead
  // of the medium's i.i.d. knob. Seeds follow the stack's multiplier
  // scheme so the injector's streams are independent of every node's.
  std::unique_ptr<fault::FaultInjector> injector;
  if (burst_channel || chaos_channel) {
    const fault::FaultPlan plan = burst_channel
                                      ? burst_plan(config.loss_rate)
                                      : chaos_plan(config.loss_rate);
    injector = std::make_unique<fault::FaultInjector>(
        plan, config.seed * 59 + 13, hooks);
    medium.set_interceptor(injector.get());
  }

  aff::AffDriverConfig driver_config;
  driver_config.wire.id_bits = config.id_bits;
  driver_config.wire.instrumented = true;
  driver_config.send_collision_notifications = config.collision_notifications;
  driver_config.density_model = config.density_model;

  // The adversary, if any, takes the medium's interception seam (chaining
  // any fault injector already on it) and forges traffic through a real
  // radio at the extra node make_topology reserved for it. Constructed
  // before the victim stacks so "attacker.*" metrics precede theirs in the
  // registry; when the plan is off, nothing here runs and the experiment
  // is byte-identical to one built before attackers existed.
  std::unique_ptr<fault::AttackerNode> attacker;
  if (config.attacker.active()) {
    attacker = std::make_unique<fault::AttackerNode>(
        medium, attacker_node(config), config.attacker, driver_config.wire,
        config.seed * 67 + 19, hooks);
    attacker->set_inner(injector.get());
    medium.set_interceptor(attacker.get());
  }

  struct Stack {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;
  };

  const radio::EnergyModel energy = radio::EnergyModel::rpc_like();
  radio::RadioConfig radio_config;
  radio_config.max_backoff = config.tx_jitter;

  Stack receiver;
  receiver.radio = std::make_unique<radio::Radio>(
      medium, 0, radio_config, energy, config.seed * 31 + 7);
  receiver.selector = core::make_selector(
      config.selector, core::IdSpace(config.id_bits), config.seed * 37 + 11);
  receiver.driver = std::make_unique<aff::AffDriver>(
      *receiver.radio, *receiver.selector, driver_config, 0, hooks);

  ExperimentResult out;
  receiver.driver->set_packet_handler([&out](const util::Bytes& packet) {
    ++out.aff_by_size[packet.size()];
  });
  receiver.driver->set_truth_packet_handler([&out](const util::Bytes& packet) {
    ++out.truth_by_size[packet.size()];
  });

  std::vector<Stack> senders(config.senders);
  for (std::size_t i = 0; i < config.senders; ++i) {
    const auto node = static_cast<sim::NodeId>(i + 1);
    auto& s = senders[i];
    s.radio = std::make_unique<radio::Radio>(medium, node, radio_config,
                                             energy, config.seed * 41 + node);
    s.selector = core::make_selector(
        config.selector, core::IdSpace(config.id_bits), config.seed * 43 + node);
    s.driver = std::make_unique<aff::AffDriver>(*s.radio, *s.selector,
                                                driver_config, node, hooks);
    const std::size_t bytes = config.per_sender_packet_bytes.empty()
                                  ? config.packet_bytes
                                  : config.per_sender_packet_bytes
                                        [i % config.per_sender_packet_bytes.size()];
    s.source = std::make_unique<apps::TrafficSource>(
        sim, *s.driver, std::make_unique<apps::SaturatingWorkload>(bytes),
        config.seed * 47 + node);
    s.source->start(sim::TimePoint::origin() + config.send_duration);
  }

  // The attacker operates for exactly the send window — the drain period
  // measures how the victims recover once the adversary goes quiet.
  if (attacker != nullptr) {
    attacker->start(sim::TimePoint::origin() + config.send_duration);
  }

  // The chaos channel additionally crashes/restarts senders; the receiver
  // (the measurement instrument) always stays up, like run_chaos_trial.
  std::unique_ptr<fault::ChurnSchedule> churn;
  if (injector != nullptr && injector->plan().churn.active()) {
    std::vector<sim::NodeId> churn_nodes;
    for (std::size_t i = 0; i < config.senders; ++i) {
      churn_nodes.push_back(static_cast<sim::NodeId>(i + 1));
    }
    churn = std::make_unique<fault::ChurnSchedule>(
        medium, injector->plan().churn, churn_nodes, config.seed * 61 + 17,
        sim::TimePoint::origin() + config.send_duration);
  }

  // Duty-cycled sender listening (§3.2): staggered phases so the senders'
  // sleep schedules are mutually unsynchronized, like unattended motes.
  std::vector<std::unique_ptr<radio::DutyCycleController>> duty;
  if (config.sender_listen_duty < 1.0) {
    for (std::size_t i = 0; i < config.senders; ++i) {
      radio::DutyCycleConfig dc;
      dc.period = config.duty_period;
      dc.on_fraction = config.sender_listen_duty;
      dc.phase = config.duty_period * static_cast<std::int64_t>(i) /
                 static_cast<std::int64_t>(config.senders);
      dc.stop_at = sim::TimePoint::origin() + config.send_duration;
      duty.push_back(std::make_unique<radio::DutyCycleController>(
          *senders[i].radio, dc));
    }
  }

  const sim::TimePoint horizon =
      sim::TimePoint::origin() + config.send_duration + config.drain_extra;
  sim.run_until(horizon);
  // Close any spans still open at the horizon (e.g. a transaction whose
  // drain estimate lands past it) with outcome "unterminated", so the
  // recorded stream is complete and byte-stable.
  if (spans != nullptr) spans->finish(horizon);

  for (const auto& s : senders) {
    out.packets_offered += s.source->packets_sent();
    out.tx_energy_nj += s.radio->energy().tx_nj();
    out.tx_bits += s.radio->counters().payload_bits_sent;
  }
  const auto& rx_stats = receiver.driver->stats();
  out.aff_delivered = rx_stats.packets_delivered;
  out.truth_delivered = rx_stats.truth_packets_delivered;
  out.notifications_sent = rx_stats.notifications_sent;
  const auto& reasm = receiver.driver->aff_reassembler().stats();
  out.checksum_failures = reasm.checksum_failed;
  out.conflicting_writes = reasm.conflicting_writes;
  out.receiver_density_estimate = receiver.driver->density_estimate();
  out.frames_attempted = medium.stats().deliveries_attempted;
  out.frames_lost_channel =
      medium.stats().lost_random + medium.stats().lost_fault;
  out.metrics = registry.snapshot();
  return out;
}

std::string fingerprint(const ExperimentResult& result) {
  std::string out;
  const auto add = [&out](const char* key, std::uint64_t value) {
    out += key;
    out += '=';
    out += std::to_string(value);
    out += ' ';
  };
  add("offered", result.packets_offered);
  add("aff", result.aff_delivered);
  add("truth", result.truth_delivered);
  add("cksum", result.checksum_failures);
  add("confl", result.conflicting_writes);
  add("notif", result.notifications_sent);
  add("tx_bits", result.tx_bits);
  add("frames", result.frames_attempted);
  add("lost_ch", result.frames_lost_channel);
  out += "aff_sizes{";
  for (const auto& [size, n] : result.aff_by_size) {
    out += std::to_string(size) + ":" + std::to_string(n) + ",";
  }
  out += "} truth_sizes{";
  for (const auto& [size, n] : result.truth_by_size) {
    out += std::to_string(size) + ":" + std::to_string(n) + ",";
  }
  out += "}";
  return out;
}

}  // namespace retri::runner

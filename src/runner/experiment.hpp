// The paper's §5.1 validation experiment as a library.
//
// Encapsulates the experimental design every sweep shares: N transmitters
// saturating a shared channel with fixed-size packets toward one receiver,
// instrumented so the receiver can count both AFF-delivered packets and the
// ground truth ("would have been received based on the unique id").
// It lives under src/runner so the parallel TrialRunner/SweepRunner layers
// and their tests drive experiments without linking bench code.
//
// One ExperimentConfig → run_experiment() call is a pure function of the
// config (including config.seed): it constructs a private Simulator, radios
// and drivers, so concurrent calls never share mutable state. That property
// is what lets TrialRunner fan trials across threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/density.hpp"
#include "core/selector.hpp"
#include "fault/attacker.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"

namespace retri::runner {

enum class TopologyKind {
  kStarFullMesh,    // §5.1: all radios in range of each other
  kHiddenTerminal,  // §3.2: senders mutually inaudible
};

std::string_view to_string(TopologyKind kind) noexcept;

struct ExperimentConfig {
  std::size_t senders = 5;
  TopologyKind topology = TopologyKind::kStarFullMesh;
  unsigned id_bits = 8;
  /// Structured id-selection policy (see core::SelectorSpec). CLI strings
  /// enter through core::parse_selector_spec; defaults to uniform.
  core::SelectorSpec selector;
  std::size_t packet_bytes = 80;
  /// Distinct packet sizes per sender for the mixed-length ablation;
  /// empty means every sender uses packet_bytes.
  std::vector<std::size_t> per_sender_packet_bytes;
  sim::Duration send_duration = sim::Duration::seconds(30);
  sim::Duration drain_extra = sim::Duration::seconds(15);
  bool collision_notifications = false;
  /// Per-frame random backoff bound — the timing jitter real radios have.
  /// Without it every saturating sender transmits in perfect lockstep, a
  /// degenerate synchronization no physical testbed exhibits.
  sim::Duration tx_jitter = sim::Duration::milliseconds(2);
  /// Fraction of time each SENDER's receiver is on (1.0 = always
  /// listening). Below 1, senders run duty-cycled listening with staggered
  /// phases — the §3.2 energy/listening tradeoff. The experiment receiver
  /// always listens (it is the measurement instrument).
  double sender_listen_duty = 1.0;
  sim::Duration duty_period = sim::Duration::milliseconds(100);
  /// Which density estimator the drivers run.
  core::DensityModelKind density_model = core::DensityModelKind::kEwma;
  /// Average per-delivery frame-loss probability of the channel (0 = the
  /// paper's ideal channel). How the average is realized depends on
  /// `channel`.
  double loss_rate = 0.0;
  /// Channel model realizing loss_rate:
  ///   "independent" — i.i.d. per-delivery loss (MediumConfig's native
  ///                   per_link_loss), the pre-fault-layer behavior;
  ///   "burst"       — a Gilbert–Elliott fault plan with the same
  ///                   stationary average but correlated losses (mean
  ///                   burst length ~5 deliveries);
  ///   "chaos"       — the full hostile plan scaled from loss_rate: burst
  ///                   loss plus corruption, duplication, delay jitter,
  ///                   and sender crash/restart churn.
  /// Unknown values throw std::invalid_argument from run_experiment.
  std::string channel = "independent";
  /// Adversarial collision attacker (fault::AttackerNode). Off by default;
  /// when active the experiment adds one extra off-path node that hears
  /// (and is heard by) everyone, forging identifier collisions during the
  /// send window.
  fault::AttackerPlan attacker;
  std::uint64_t seed = 1;

  /// Wire fields in wire order (util/json_fields.hpp): the serve codec's
  /// canonical cell and ResultSink's per-point config record.
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("senders", s.senders);
    f("topology", s.topology);
    f("id_bits", s.id_bits);
    f("selector", s.selector);
    f("attacker", s.attacker);
    f("packet_bytes", s.packet_bytes);
    f("per_sender_packet_bytes", s.per_sender_packet_bytes);
    f("send_ns", s.send_duration);
    f("drain_ns", s.drain_extra);
    f("collision_notifications", s.collision_notifications);
    f("tx_jitter_ns", s.tx_jitter);
    f("sender_listen_duty", s.sender_listen_duty);
    f("duty_period_ns", s.duty_period);
    f("density_model", s.density_model);
    f("loss_rate", s.loss_rate);
    f("channel", s.channel);
    f("seed", s.seed);
  }
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. run_experiment applies this before building the stack.
ExperimentConfig validated(ExperimentConfig config);

struct ExperimentResult {
  std::uint64_t packets_offered = 0;    // sum over senders
  std::uint64_t aff_delivered = 0;      // realistic path at the receiver
  std::uint64_t truth_delivered = 0;    // instrumented ground truth
  std::uint64_t checksum_failures = 0;
  std::uint64_t conflicting_writes = 0;
  std::uint64_t notifications_sent = 0;
  double receiver_density_estimate = 0.0;
  double tx_energy_nj = 0.0;            // summed over transmitters
  std::uint64_t tx_bits = 0;            // payload bits on the air
  std::uint64_t frames_attempted = 0;   // medium deliveries attempted
  /// Channel-induced frame losses (independent random + fault-layer
  /// drops), excluding RF collisions / half-duplex / powered-off, so the
  /// burst-loss ablation can verify the measured loss matches loss_rate.
  std::uint64_t frames_lost_channel = 0;
  /// Every metric the trial's components registered (medium, fault
  /// injector, every driver/reassembler/selector), snapshotted after the
  /// simulation drained. Deterministic for a given config: registration
  /// order is construction order and recording is event-ordered, so the
  /// snapshot is byte-identical across --jobs counts.
  obs::MetricsSnapshot metrics;
  /// Deliveries keyed by packet size — in mixed-length workloads the size
  /// identifies the sender class, letting ablations attribute loss to long
  /// vs. short transactions without violating address-freedom.
  std::map<std::size_t, std::uint64_t> aff_by_size;
  std::map<std::size_t, std::uint64_t> truth_by_size;

  /// Wire fields in wire order (util/json_fields.hpp): the serve cache
  /// body. The metrics snapshot is written as its bare entry array.
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("packets_offered", s.packets_offered);
    f("aff_delivered", s.aff_delivered);
    f("truth_delivered", s.truth_delivered);
    f("checksum_failures", s.checksum_failures);
    f("conflicting_writes", s.conflicting_writes);
    f("notifications_sent", s.notifications_sent);
    f("receiver_density_estimate", s.receiver_density_estimate);
    f("tx_energy_nj", s.tx_energy_nj);
    f("tx_bits", s.tx_bits);
    f("frames_attempted", s.frames_attempted);
    f("frames_lost_channel", s.frames_lost_channel);
    f("metrics", s.metrics.entries);
    f("aff_by_size", s.aff_by_size);
    f("truth_by_size", s.truth_by_size);
  }

  /// Collision-loss rate for one packet-size class, clamped to [0, 1]:
  /// duplicate AFF deliveries under id collisions can push aff_by_size
  /// above truth_by_size, which would otherwise read as negative loss.
  double class_loss(std::size_t size) const {
    const auto truth = truth_by_size.find(size);
    if (truth == truth_by_size.end() || truth->second == 0) return 0.0;
    const auto aff = aff_by_size.find(size);
    const double delivered =
        aff == aff_by_size.end() ? 0.0 : static_cast<double>(aff->second);
    return std::clamp(1.0 - delivered / static_cast<double>(truth->second),
                      0.0, 1.0);
  }

  /// Fraction of ground-truth-deliverable packets the AFF path delivered —
  /// Figure 4's y-axis is 1 minus this.
  double delivery_ratio() const {
    if (truth_delivered == 0) return 0.0;
    return static_cast<double>(aff_delivered) /
           static_cast<double>(truth_delivered);
  }
  double collision_loss_rate() const { return 1.0 - delivery_ratio(); }

  /// Measured per-delivery channel loss (should track config.loss_rate).
  double observed_frame_loss() const {
    if (frames_attempted == 0) return 0.0;
    return static_cast<double>(frames_lost_channel) /
           static_cast<double>(frames_attempted);
  }
};

/// Runs one trial of the validation experiment. Thread-compatible: distinct
/// configs may run concurrently (all simulation state is trial-local).
///
/// When `spans` is non-null the whole protocol timeline is recorded into
/// it: transaction spans (id selection → radio drain) on the sender side,
/// reassembly spans (entry creation → delivered/checksum_failed/timeout/
/// evicted) on the receive side, fragment instants parented to both, and
/// the medium's frame events as ground-truth instants. The recorder is
/// finished (stragglers closed "unterminated") at the simulation horizon,
/// so the stream is complete and deterministic when this returns.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                obs::SpanRecorder* spans = nullptr);

/// Canonical integer-field digest of a trial result, e.g.
/// "offered=129 aff=127 ... aff_sizes{80:127,} truth_sizes{80:129,}".
/// Deliberately excludes the floating-point fields (energy, density): those
/// can differ in the last ulp across optimization levels (FMA contraction),
/// while the integer fields are exact. The golden-fingerprint determinism
/// test compares these against committed constants, so the format is part
/// of the repo's compatibility surface — changing it means regenerating the
/// constants in test_golden_fingerprints.cpp.
std::string fingerprint(const ExperimentResult& result);

}  // namespace retri::runner

#include "repro.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <utility>

#include "aff/driver.hpp"
#include "apps/codebook.hpp"
#include "apps/diffusion.hpp"
#include "apps/workload.hpp"
#include "core/model.hpp"
#include "core/selector.hpp"
#include "core/transaction.hpp"
#include "net/central_alloc.hpp"
#include "net/dynamic_alloc.hpp"
#include "obs/export.hpp"
#include "radio/energy.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/bitops.hpp"
#include "util/random.hpp"

namespace retri::bench {
namespace {

namespace model = core::model;
using runner::ExperimentResult;
using runner::SweepPointResult;
using runner::SweepResult;
using stats::Table;
using stats::fmt;
using stats::fmt_pct;
using Cells = std::vector<const SweepPointResult*>;

/// Family-wise significance of the Eq. 4 bound, split over the widths.
constexpr double kEq4Alpha = 0.05;

void emit(const Table& table, bool csv) {
  if (csv) table.print_csv(std::cout);
  else table.print(std::cout);
}

template <class Keep>
Cells cells(const SweepResult& result, Keep keep) {
  Cells out;
  for (const SweepPointResult& point : result.points) {
    if (keep(point.config)) out.push_back(&point);
  }
  return out;
}

auto with_policy(core::SelectorPolicy policy, bool notify = false) {
  return [policy, notify](const runner::ExperimentConfig& config) {
    return config.selector.policy == policy &&
           config.selector.listening.heed_notifications == notify;
  };
}

/// Packets pooled over cells' trials: ground-truth deliveries and those of
/// them the AFF path lost to identifier collisions.
struct Pooled {
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;

  /// Some but not all delivered packets were lost.
  bool interior() const { return lost > 0 && lost < delivered; }
};

Pooled pool(const Cells& group) {
  Pooled out;
  for (const SweepPointResult* cell : group) {
    for (const ExperimentResult& trial : cell->trials) {
      out.delivered += trial.truth_delivered;
      if (trial.truth_delivered > trial.aff_delivered) {
        out.lost += trial.truth_delivered - trial.aff_delivered;
      }
    }
  }
  return out;
}

/// The non-degeneracy guard: there are cells, and each delivered packets.
bool delivered(const Cells& group) {
  return !group.empty() &&
         std::all_of(group.begin(), group.end(),
                     [](const SweepPointResult* cell) {
                       return pool({cell}).delivered > 0;
                     });
}

double mean_loss(const SweepPointResult* cell) {
  return cell->summary.collision_loss.mean();
}

double total_loss(const Cells& group) {
  double total = 0.0;
  for (const SweepPointResult* cell : group) total += mean_loss(cell);
  return total;
}

double eq4_loss(const runner::ExperimentConfig& config) {
  return 1.0 - model::p_success(config.id_bits,
                                static_cast<double>(config.senders));
}

double eq4_lower_bound(const SweepPointResult* cell, std::size_t widths) {
  const Pooled p = pool({cell});
  return stats::clopper_pearson_lower(p.lost, p.delivered,
                                      kEq4Alpha / static_cast<double>(widths));
}

// --- fig4: §5.1's validation, Eq. 4 against uniform and listening ---------

void print_fig4(const SweepResults& r, bool csv) {
  const Cells uniform = cells(r[0], with_policy(core::SelectorPolicy::kUniform));
  const Cells listening =
      cells(r[0], with_policy(core::SelectorPolicy::kListening));
  std::printf("(%zu senders -> 1 receiver, 80-byte packets in 5 fragments, "
              "%u trials per cell; uniform CP lo = one-sided Clopper-Pearson "
              "bound, alpha %.2f over %zu widths)\n\n",
              r[0].spec.base.senders, r[0].spec.trials, kEq4Alpha,
              uniform.size());
  Table table({"id bits", "Eq.4 loss", "uniform loss", "uniform sd",
               "uniform CP lo", "listening loss", "listening sd",
               "packets/trial"});
  for (std::size_t i = 0; i < uniform.size() && i < listening.size(); ++i) {
    table.row({std::to_string(uniform[i]->config.id_bits),
               fmt(eq4_loss(uniform[i]->config)), fmt(mean_loss(uniform[i])),
               fmt(uniform[i]->summary.collision_loss.stddev()),
               fmt(eq4_lower_bound(uniform[i], uniform.size())),
               fmt(mean_loss(listening[i])),
               fmt(listening[i]->summary.collision_loss.stddev()),
               std::to_string(uniform[i]->summary.last.truth_delivered)});
  }
  emit(table, csv);
}

std::vector<Check> judge_fig4(const SweepResults& r) {
  const Cells uniform = cells(r[0], with_policy(core::SelectorPolicy::kUniform));
  const Cells listening =
      cells(r[0], with_policy(core::SelectorPolicy::kListening));
  const bool sane = delivered(uniform) && delivered(listening) &&
                    pool(uniform).interior();
  // "A reasonable upper bound" (§5.1): at no width is the pooled uniform
  // loss significantly above Eq. 4.
  bool bounded = sane;
  for (const SweepPointResult* cell : uniform) {
    bounded = bounded &&
              eq4_lower_bound(cell, uniform.size()) <= eq4_loss(cell->config);
  }
  return {{"eq4_upper_bound", bounded},
          {"listening_reduces_collisions",
           sane && total_loss(listening) <= total_loss(uniform) + 1e-9}};
}

// --- hidden_terminal: §3.2's warning, with fig4's full-mesh listening -----

struct HiddenCells {
  Cells mesh;  // listening, full mesh, at the hidden sweep's widths
  Cells uniform;
  Cells listening;
  Cells notify;
};

HiddenCells hidden_cells(const SweepResults& r) {
  HiddenCells out;
  out.uniform = cells(r[1], with_policy(core::SelectorPolicy::kUniform));
  out.listening = cells(r[1], with_policy(core::SelectorPolicy::kListening));
  out.notify =
      cells(r[1], with_policy(core::SelectorPolicy::kListening, true));
  const std::vector<unsigned>& widths = r[1].spec.id_bits;
  out.mesh = cells(r[0], [&widths](const runner::ExperimentConfig& config) {
    return with_policy(core::SelectorPolicy::kListening)(config) &&
           std::find(widths.begin(), widths.end(), config.id_bits) !=
               widths.end();
  });
  return out;
}

void print_hidden_terminal(const SweepResults& r, bool csv) {
  const HiddenCells c = hidden_cells(r);
  Table table({"id bits", "uniform hidden", "listen mesh", "listen hidden",
               "listen hidden+notify", "Eq.4 loss"});
  const std::size_t rows = std::min(
      {c.uniform.size(), c.mesh.size(), c.listening.size(), c.notify.size()});
  for (std::size_t i = 0; i < rows; ++i) {
    table.row({std::to_string(c.uniform[i]->config.id_bits),
               fmt(mean_loss(c.uniform[i])), fmt(mean_loss(c.mesh[i])),
               fmt(mean_loss(c.listening[i])), fmt(mean_loss(c.notify[i])),
               fmt(eq4_loss(c.uniform[i]->config))});
  }
  emit(table, csv);
}

std::vector<Check> judge_hidden_terminal(const SweepResults& r) {
  const HiddenCells c = hidden_cells(r);
  const bool sane = delivered(c.mesh) && delivered(c.uniform) &&
                    delivered(c.listening) && pool(c.listening).interior() &&
                    pool(c.uniform).interior();
  return {{"mesh_listening_beats_hidden",
           sane && total_loss(c.mesh) <= total_loss(c.listening) + 1e-9},
          {"hidden_listening_near_uniform",
           sane &&
               total_loss(c.listening) <= total_loss(c.uniform) + 0.05}};
}

// --- txn_lengths: §4.1's equal-length assumption ---------------------------

/// Mean per-trial loss of one packet-size class, and its pooled truth.
std::pair<double, std::uint64_t> class_loss(const SweepPointResult* cell,
                                            std::size_t size) {
  stats::TrialSet loss;
  std::uint64_t truth = 0;
  for (const ExperimentResult& trial : cell->trials) {
    loss.add(trial.class_loss(size));
    const auto it = trial.truth_by_size.find(size);
    if (it != trial.truth_by_size.end()) truth += it->second;
  }
  return {loss.mean(), truth};
}

std::pair<std::size_t, std::size_t> size_classes(
    const runner::ExperimentConfig& config) {
  const auto& sizes = config.per_sender_packet_bytes;
  if (sizes.empty()) return {config.packet_bytes, config.packet_bytes};
  return {*std::min_element(sizes.begin(), sizes.end()),
          *std::max_element(sizes.begin(), sizes.end())};
}

void print_txn_lengths(const SweepResults& r, bool csv) {
  Table table({"id bits", "equal-length Eq.4", "overall loss", "sd",
               "short-class loss", "long-class loss"});
  for (const SweepPointResult& point : r[0].points) {
    const auto [shortest, longest] = size_classes(point.config);
    table.row({std::to_string(point.config.id_bits),
               fmt(eq4_loss(point.config)), fmt(mean_loss(&point)),
               fmt(point.summary.collision_loss.stddev()),
               fmt(class_loss(&point, shortest).first),
               fmt(class_loss(&point, longest).first)});
  }
  emit(table, csv);
}

std::vector<Check> judge_txn_lengths(const SweepResults& r) {
  // At every width, long transactions among short ones overlap far more
  // than the model's 2(T - 1) equal-length peers and lose more.
  const Cells all = cells(r[0], [](const auto&) { return true; });
  bool suffers = delivered(all);
  for (const SweepPointResult* cell : all) {
    const auto [shortest, longest] = size_classes(cell->config);
    const auto [short_loss, short_truth] = class_loss(cell, shortest);
    const auto [long_loss, long_truth] = class_loss(cell, longest);
    suffers = suffers && shortest != longest && short_truth > 0 &&
              long_truth > 0 && long_loss > short_loss + 0.05;
  }
  return {{"long_transactions_suffer", suffers}};
}

// --- duty_cycle: §3.2's duty-cycled listening, §8's model extension -------

void print_duty_cycle(const SweepResults& r, bool csv) {
  Table table({"listen duty", "observed loss", "sd", "extended model loss",
               "Eq.4 (no listening)"});
  for (const SweepPointResult& point : r[0].points) {
    const double t = static_cast<double>(point.config.senders);
    table.row({fmt(point.config.sender_listen_duty, 2), fmt(mean_loss(&point)),
               fmt(point.summary.collision_loss.stddev()),
               fmt(1.0 - model::p_success_listening(
                             point.config.id_bits, t,
                             point.config.sender_listen_duty)),
               fmt(eq4_loss(point.config))});
  }
  emit(table, csv);
}

std::vector<Check> judge_duty_cycle(const SweepResults& r) {
  const Cells all = cells(r[0], [](const auto&) { return true; });
  const bool sane = delivered(all) && pool({all.front()}).interior();
  bool decreasing = sane;
  for (std::size_t i = 1; i < all.size(); ++i) {
    decreasing = decreasing && mean_loss(all[i]) <= mean_loss(all[i - 1]) + 0.05;
  }
  return {{"deaf_senders_match_eq4",
           sane && mean_loss(all.front()) > 0.5 * eq4_loss(all.front()->config)},
          {"loss_decreases_with_duty", decreasing},
          {"full_listening_far_below_deaf",
           sane && mean_loss(all.back()) < 0.5 * mean_loss(all.front())}};
}

// --- density_estimators: §8's density-estimate question --------------------

void print_density_estimators(const SweepResults& r, bool csv) {
  Table table({"estimator", "loss", "sd", "density estimate", "Eq.4 loss"});
  for (const SweepPointResult& point : r[0].points) {
    table.row({std::string(core::to_string(point.config.density_model)),
               fmt(mean_loss(&point)),
               fmt(point.summary.collision_loss.stddev()),
               fmt(point.summary.last.receiver_density_estimate, 2),
               fmt(eq4_loss(point.config))});
  }
  emit(table, csv);
}

std::vector<Check> judge_density_estimators(const SweepResults& r) {
  const Cells all = cells(r[0], [](const auto&) { return true; });
  bool beats = delivered(all) && pool(all).interior();
  for (const SweepPointResult* cell : all) {
    beats = beats && mean_loss(cell) < eq4_loss(cell->config);
  }
  return {{"every_estimator_beats_uniform", beats}};
}

// --- burst_loss: Gilbert-Elliott vs independent loss at equal rates -------

struct ChannelStats {
  stats::TrialSet frame_loss;
  stats::TrialSet truth_delivery;  // truth_delivered / packets_offered
  bool sane = true;                // packets arrived, frames lost in (0, 1)
};

ChannelStats channel_stats(const SweepPointResult* cell) {
  ChannelStats out;
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  for (const ExperimentResult& trial : cell->trials) {
    out.frame_loss.add(trial.observed_frame_loss());
    out.truth_delivery.add(trial.packets_offered == 0
                               ? 0.0
                               : static_cast<double>(trial.truth_delivered) /
                                     static_cast<double>(trial.packets_offered));
    attempted += trial.frames_attempted;
    lost += trial.frames_lost_channel;
  }
  out.sane = delivered({cell}) && lost > 0 && lost < attempted;
  return out;
}

Cells on_channel(const SweepResult& result, std::string_view channel) {
  return cells(result, [channel](const runner::ExperimentConfig& config) {
    return config.channel == channel;
  });
}

void print_burst_loss(const SweepResults& r, bool csv) {
  const Cells iid = on_channel(r[0], "independent");
  const Cells burst = on_channel(r[0], "burst");
  Table table({"target loss", "iid measured", "burst measured",
               "iid truth delivery", "burst truth delivery"});
  for (std::size_t i = 0; i < iid.size() && i < burst.size(); ++i) {
    const ChannelStats a = channel_stats(iid[i]);
    const ChannelStats b = channel_stats(burst[i]);
    table.row({fmt(iid[i]->config.loss_rate, 2), fmt(a.frame_loss.mean()),
               fmt(b.frame_loss.mean()), fmt(a.truth_delivery.mean()),
               fmt(b.truth_delivery.mean())});
  }
  emit(table, csv);
}

std::vector<Check> judge_burst_loss(const SweepResults& r) {
  const Cells iid = on_channel(r[0], "independent");
  const Cells burst = on_channel(r[0], "burst");
  bool calibrated = !iid.empty() && iid.size() == burst.size();
  bool burst_helps = calibrated;
  for (std::size_t i = 0; i < iid.size() && i < burst.size(); ++i) {
    const double target = iid[i]->config.loss_rate;
    const ChannelStats a = channel_stats(iid[i]);
    const ChannelStats b = channel_stats(burst[i]);
    // Both channels realize the configured average frame-loss rate.
    calibrated = calibrated && a.sane && b.sane &&
                 std::abs(a.frame_loss.mean() - target) < 0.05 &&
                 std::abs(b.frame_loss.mean() - target) < 0.05;
    // Bursts concentrate damage on fewer packets (read where loss is high
    // enough for the difference to show).
    burst_helps = burst_helps && a.sane && b.sane &&
                  (target < 0.15 || b.truth_delivery.mean() >=
                                        a.truth_delivery.mean() - 0.02);
  }
  return {{"frame_loss_calibrated", calibrated},
          {"burst_delivers_no_fewer_packets", burst_helps}};
}

// --- selectors: the selector zoo under adversarial collisions --------------

/// Measured Eq.-4-style efficiency over a point's trials: delivered payload
/// bits / transmitted payload bits, summed before dividing so long trials
/// weigh more (a ratio of sums, not a mean of ratios).
double measured_efficiency(const SweepPointResult& point) {
  double useful_bits = 0.0;
  double air_bits = 0.0;
  for (const ExperimentResult& trial : point.trials) {
    useful_bits += static_cast<double>(trial.aff_delivered) *
                   static_cast<double>(point.config.packet_bytes) * 8.0;
    air_bits += static_cast<double>(trial.tx_bits);
  }
  return air_bits <= 0.0 ? 0.0 : useful_bits / air_bits;
}

double model_e_aff(const runner::ExperimentConfig& config) {
  return model::e_aff(static_cast<double>(config.packet_bytes) * 8.0,
                      config.id_bits, static_cast<double>(config.senders));
}

void print_selectors(const SweepResults& r, bool csv) {
  Table table({"selector", "attacker", "T", "measured eff", "model e_aff",
               "loss mean", "loss sd"});
  for (const SweepPointResult& point : r[0].points) {
    table.row({std::string(core::describe(point.config.selector)),
               std::string(fault::to_string(point.config.attacker.mode)),
               std::to_string(point.config.senders),
               fmt(measured_efficiency(point)), fmt(model_e_aff(point.config)),
               fmt(mean_loss(&point)),
               fmt(point.summary.collision_loss.stddev())});
  }
  emit(table, csv);
}

std::vector<Check> judge_selectors(const SweepResults& r) {
  auto under = [&r](core::SelectorPolicy policy, fault::AttackerMode mode) {
    return cells(r[0], [=](const runner::ExperimentConfig& config) {
      return config.selector.policy == policy && config.attacker.mode == mode;
    });
  };
  const Cells uniform = under(core::SelectorPolicy::kUniform,
                              fault::AttackerMode::kOff);
  const Cells permutation = under(core::SelectorPolicy::kPermutation,
                                  fault::AttackerMode::kOff);
  const Cells echoed = under(core::SelectorPolicy::kUniform,
                             fault::AttackerMode::kEchoCollide);
  const bool sane = delivered(uniform) && pool(uniform).interior();
  // Permutation removes self-collisions by construction; cross-node
  // collisions stay stochastic, hence the small slack.
  return {{"permutation_no_worse_than_uniform",
           sane && delivered(permutation) &&
               total_loss(permutation) <= total_loss(uniform) + 0.05},
          {"echo_attacker_does_not_help_victims",
           sane && delivered(echoed) &&
               total_loss(echoed) >= total_loss(uniform) - 1e-9}};
}

/// bench/ABLATE_selectors.json: one compact row per (selector, attacker,
/// load) cell. A pure function of the jobs-invariant sweep results, so the
/// bytes match across worker counts.
std::string selectors_artifact(const SweepResults& r) {
  const runner::SweepSpec& spec = r[0].spec;
  std::string out;
  out += "{\n  \"schema\": \"retri.selector-ablation\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"id_bits\": " + std::to_string(spec.base.id_bits) + ",\n";
  out += "  \"trials\": " + std::to_string(spec.trials) + ",\n";
  out += "  \"send_seconds\": " +
         fmt(spec.base.send_duration.to_seconds(), 3) + ",\n";
  out += "  \"seed\": " + std::to_string(spec.base.seed) + ",\n";
  out += "  \"cells\": [\n";
  for (std::size_t p = 0; p < r[0].points.size(); ++p) {
    const SweepPointResult& point = r[0].points[p];
    out += "    {\"selector\": \"" +
           std::string(core::describe(point.config.selector)) +
           "\", \"attacker\": \"" +
           std::string(fault::to_string(point.config.attacker.mode)) +
           "\", \"senders\": " + std::to_string(point.config.senders) +
           ", \"measured_eff\": " + fmt(measured_efficiency(point), 6) +
           ", \"model_e_aff\": " + fmt(model_e_aff(point.config), 6) +
           ", \"loss_mean\": " + fmt(mean_loss(&point), 6) +
           ", \"loss_sd\": " + fmt(point.summary.collision_loss.stddev(), 6) +
           "}";
    out += p + 1 < r[0].points.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

// --- model-only entries: fig1, fig2, fig3, energy ---------------------------


/// Figures 1 and 2 share their table: E_aff over H = 1..32 at T = 16, 256
/// and 65536 against the flat static 16- and 32-bit lines.
void print_efficiency(double data_bits, const BenchArgs& args) {
  Table table({"id bits", "E_aff T=16", "E_aff T=256", "E_aff T=65536",
               "E_static 16b", "E_static 32b"});
  for (unsigned h = 1; h <= 32; ++h) {
    table.row({std::to_string(h), fmt(model::e_aff(data_bits, h, 16.0)),
               fmt(model::e_aff(data_bits, h, 256.0)),
               fmt(model::e_aff(data_bits, h, 65536.0)),
               fmt(model::e_static(data_bits, 16)),
               fmt(model::e_static(data_bits, 32))});
  }
  emit(table, args.csv);
}

/// Monte-Carlo survival at (H, T) via the registry: each probe transaction
/// overlaps 2(T - 1) peers, the model's overlap process, and survives when
/// none of them drew its identifier. Returns how many of `probes` probes
/// ended clean. The registry is empty again after every probe, so one
/// instance serves them all.
std::uint64_t monte_carlo_survivors(unsigned id_bits, unsigned density,
                                    std::uint64_t probes, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const core::IdSpace space(id_bits);
  core::TransactionRegistry reg;
  std::uint64_t survived = 0;
  for (std::uint64_t p = 0; p < probes; ++p) {
    const core::TxHandle probe =
        reg.begin(core::TransactionId(rng.below(space.size())));
    const unsigned peers = 2 * (density - 1);
    for (unsigned i = 0; i < peers; ++i) {
      reg.end(reg.begin(core::TransactionId(rng.below(space.size()))));
    }
    if (reg.end(probe)) ++survived;
  }
  return survived;
}

/// Energy to transmit `messages` readings of `data_bits` with a
/// `header_bits` header under the given radio model, one message per frame
/// (the paper's small periodic readings each fit one frame).
double tx_energy_nj(const radio::EnergyModel& energy, double data_bits,
                    unsigned header_bits, std::uint64_t messages) {
  radio::EnergyMeter meter(energy);
  const auto bits_per_message =
      static_cast<std::uint64_t>(data_bits) + header_bits;
  for (std::uint64_t i = 0; i < messages; ++i) meter.on_tx(bits_per_message);
  return meter.tx_nj();
}

std::vector<Check> run_fig1(const BenchArgs& args) {
  constexpr double kDataBits = 16.0;
  print_efficiency(kDataBits, args);

  std::puts("\nIn-text values (§4.2):");
  Table summary({"quantity", "paper", "model"});
  summary.row({"E_static, 16-bit data, 16-bit address", "50%",
               fmt_pct(model::e_static(kDataBits, 16))});
  summary.row({"E_static, 16-bit data, 32-bit address", "33%",
               fmt_pct(model::e_static(kDataBits, 32))});
  summary.row({"optimal AFF id bits at T=16", "9",
               std::to_string(model::optimal_id_bits(kDataBits, 16.0))});
  summary.row({"optimal E_aff at T=16", "> 50%",
               fmt_pct(model::optimal_e_aff(kDataBits, 16.0))});
  for (const int t : {16, 256, 65536}) {
    summary.row({"optimal AFF id bits at T=" + std::to_string(t), "-",
                 std::to_string(model::optimal_id_bits(kDataBits, t))});
  }
  emit(summary, args.csv);

  return {{"aff_beats_16bit_static_at_T16",
           model::optimal_e_aff(kDataBits, 16.0) >
               model::e_static(kDataBits, 16)},
          {"no_aff_headroom_at_T64K",
           model::optimal_e_aff(kDataBits, 65536.0, 32) <=
               model::e_static(kDataBits, 16) + 1e-12}};
}

std::vector<Check> run_fig2(const BenchArgs& args) {
  constexpr double kDataBits = 128.0;
  print_efficiency(kDataBits, args);

  const unsigned h16 = model::optimal_id_bits(16.0, 16.0);
  const unsigned h128 = model::optimal_id_bits(kDataBits, 16.0);
  const double gap =
      model::optimal_e_aff(kDataBits, 16.0) - model::e_static(kDataBits, 16);
  std::puts("\nObservations (§4.2-4.3):");
  Table summary({"quantity", "paper", "model"});
  summary.row({"E_static(128b data, 16b addr)", "higher than 50%",
               fmt_pct(model::e_static(kDataBits, 16))});
  summary.row({"optimal AFF bits, 16b data, T=16", "9", std::to_string(h16)});
  summary.row({"optimal AFF bits, 128b data, T=16", "grows",
               std::to_string(h128)});
  summary.row({"optimal E_aff at T=16", "-",
               fmt_pct(model::optimal_e_aff(kDataBits, 16.0))});
  summary.row({"gap to 16b static at T=16", "not significant", fmt(gap)});
  emit(summary, args.csv);

  return {{"optimal_bits_grow_with_data", h128 > h16},
          {"aff_static_gap_small", gap > -0.05 && gap < 0.15}};
}

std::vector<Check> run_fig3(const BenchArgs& args) {
  // Static series stop at address-space exhaustion ("the efficiency is
  // undefined"): n/a. The Monte-Carlo column cross-checks the closed form.
  constexpr double kDataBits = 16.0;
  // Per-load two-sided level of the Monte-Carlo check: 11 loads at 0.1%
  // keep a seed's chance of a spurious failure near 1%.
  constexpr double kTailAlpha = 0.0005;
  constexpr unsigned kMcBits = 9;
  constexpr std::uint64_t kProbes = 20'000;  // per load
  const unsigned loads[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  Table table({"load T", "AFF H=9", "AFF H=9 (MC)", "AFF H=12", "AFF H=16",
               "static 8b", "static 16b"});
  bool mc_agrees = true;
  for (const unsigned t : loads) {
    // The closed-form survival (1 - 2^-H)^(2(T-1)) must lie inside the
    // exact two-sided Clopper–Pearson interval of the probe count; the
    // upper bound is the lower bound of the failures, mirrored.
    const std::uint64_t k =
        monte_carlo_survivors(kMcBits, t, kProbes, args.seed * 100 + t);
    const double lo = stats::clopper_pearson_lower(k, kProbes, kTailAlpha);
    const double hi =
        1.0 - stats::clopper_pearson_lower(kProbes - k, kProbes, kTailAlpha);
    const double closed = model::p_success(kMcBits, t);
    mc_agrees = mc_agrees && lo <= closed && closed <= hi;
    const double mc_e_aff =
        kDataBits * (static_cast<double>(k) / static_cast<double>(kProbes)) /
        (kDataBits + kMcBits);
    table.row({std::to_string(t), fmt(model::e_aff(kDataBits, 9, t)),
               fmt(mc_e_aff),
               fmt(model::e_aff(kDataBits, 12, t)),
               fmt(model::e_aff(kDataBits, 16, t)),
               fmt(model::e_static_vs_load(kDataBits, 8, t)),
               fmt(model::e_static_vs_load(kDataBits, 16, t))});
  }
  emit(table, args.csv);

  bool decays = true;
  double prev = 2.0;
  for (const unsigned t : loads) {
    const double e = model::e_aff(kDataBits, 9, t);
    decays = decays && e <= prev;
    prev = e;
  }
  return {{"static_flat_while_feasible",
           model::e_static_vs_load(kDataBits, 16, 1.0) ==
               model::e_static_vs_load(kDataBits, 16, 65536.0)},
          {"static_8bit_undefined_past_256",
           std::isnan(model::e_static_vs_load(kDataBits, 8, 257.0))},
          {"aff_works_past_exhaustion", model::e_aff(kDataBits, 9, 512.0) > 0.0},
          {"aff_decays_with_load", decays},
          {"monte_carlo_matches_closed_form", mc_agrees}};
}

std::vector<Check> run_energy(const BenchArgs& args) {
  // The same 16-bit-reading workload under three radio energy models and
  // three header widths; AFF loses Eq. 4's collision fraction, static
  // headers are collision-free.
  constexpr double kDataBits = 16.0;
  constexpr std::uint64_t kMessages = 100'000;
  constexpr double kDensity = 16.0;
  const unsigned aff_bits = model::optimal_id_bits(kDataBits, kDensity);
  const struct {
    const char* name;
    radio::EnergyModel energy;
  } radios[] = {
      {"RPC-class (Radiometrix)", radio::EnergyModel::rpc_like()},
      {"WINS-class", radio::EnergyModel::wins_like()},
      {"802.11-class", radio::EnergyModel::ieee80211_like()},
  };
  std::printf("(%llu messages of %.0f data bits; AFF header = optimal %u bits "
              "at T = %.0f)\n\n",
              static_cast<unsigned long long>(kMessages), kDataBits, aff_bits,
              kDensity);

  Table table({"radio", "AFF " + std::to_string(aff_bits) + "b nJ/bit",
               "static 16b nJ/bit", "static 32b nJ/bit",
               "AFF saving vs 32b"});
  std::vector<double> savings;
  for (const auto& radio : radios) {
    const double useful_aff = kDataBits * static_cast<double>(kMessages) *
                              model::p_success(aff_bits, kDensity);
    const double useful_static = kDataBits * static_cast<double>(kMessages);
    const double aff =
        tx_energy_nj(radio.energy, kDataBits, aff_bits, kMessages) / useful_aff;
    const double s16 =
        tx_energy_nj(radio.energy, kDataBits, 16, kMessages) / useful_static;
    const double s32 =
        tx_energy_nj(radio.energy, kDataBits, 32, kMessages) / useful_static;
    savings.push_back(1.0 - aff / s32);
    table.row({radio.name, fmt(aff, 1), fmt(s16, 1), fmt(s32, 1),
               fmt_pct(savings.back())});
  }
  emit(table, args.csv);

  return {{"rpc_saving_large", savings.front() > 0.20},
          {"wifi_saving_negligible", savings.back() < 0.05}};
}

// --- codebook: sizing codebook codes (§6) -----------------------------------

constexpr std::size_t kPublishers = 4;
constexpr std::size_t kBindingsPerPublisher = 4;
constexpr int kReadingsPerBinding = 25;

apps::AttributeSet attr_set(std::size_t publisher, std::size_t index) {
  std::string type = "sensor-";
  type += std::to_string(publisher);
  std::string series = "s";
  series += std::to_string(index);
  std::string region = "sector-";
  region += std::to_string((publisher * 7 + index) % 5);
  return {{"type", std::move(type)},
          {"series", std::move(series)},
          {"region", std::move(region)},
          {"unit", "counts-per-interval"}};
}

struct CodebookOutcome {
  std::uint64_t total_bits = 0;
  std::uint64_t plain_bits = 0;   // what full naming would have cost
  std::uint64_t resolved_right = 0;
  std::uint64_t misdelivered = 0;  // resolved to the WRONG attributes
  std::uint64_t unresolved = 0;
  std::uint64_t conflicts_detected = 0;

  double efficiency() const {
    // Useful bits: the 16-bit reading of every correctly resolved message.
    return total_bits == 0
               ? 0.0
               : static_cast<double>(resolved_right) * 16.0 /
                     static_cast<double>(total_bits);
  }
};

/// Several publishers each keep a handful of live bindings in rotation and
/// stream compressed readings to one subscriber; the true set id rides in
/// the payload, so misdeliveries are counted exactly.
CodebookOutcome simulate_codebook(unsigned code_bits, std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(
      sim, sim::Topology::full_mesh(kPublishers + 1), {}, seed);

  // Radios with a frame size that fits a full definition, like the
  // larger-framed radios the paper mentions for occasional big messages.
  radio::RadioConfig rconfig;
  rconfig.max_frame_bytes = 128;

  CodebookOutcome out;

  // Subscriber (node 0).
  radio::Radio sub_radio(medium, 0, rconfig, radio::EnergyModel::rpc_like(),
                         seed + 1);
  apps::CodebookDecoder decoder(64);
  sub_radio.set_receive_callback([&](sim::NodeId, const util::Bytes& frame) {
    const auto msg = apps::decode_codebook_message(code_bits, frame);
    if (!msg) return;
    if (msg->kind == apps::CodebookMessage::Kind::kDefinition) {
      decoder.define(msg->code, msg->attrs);
      return;
    }
    // Payload: [true publisher:1][true set index:1][reading:2].
    util::BufferReader r(msg->payload);
    const auto true_pub = r.u8();
    const auto true_idx = r.u8();
    const auto value = r.u16();
    if (!true_pub || !true_idx || !value) return;
    const auto attrs = decoder.resolve(msg->code);
    if (!attrs) {
      ++out.unresolved;
      return;
    }
    apps::AttributeSet expected = attr_set(*true_pub, *true_idx);
    apps::canonicalize(expected);
    if (*attrs == expected) ++out.resolved_right;
    else ++out.misdelivered;
  });

  struct Publisher {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<apps::CodebookEncoder> encoder;
  };
  std::vector<Publisher> publishers(kPublishers);
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers[p].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(p + 1), rconfig,
        radio::EnergyModel::rpc_like(), seed + 10 + p);
    publishers[p].selector = core::make_selector(
        core::uniform_selector(), core::IdSpace(code_bits), seed + 20 + p);
    // Capacity below the binding rotation so bindings stay ephemeral and
    // codes genuinely churn (the RETRI discipline).
    publishers[p].encoder = std::make_unique<apps::CodebookEncoder>(
        *publishers[p].selector, kBindingsPerPublisher);
  }

  // Interleaved rounds: every publisher cycles through its binding set.
  for (int reading = 0; reading < kReadingsPerBinding; ++reading) {
    for (std::size_t idx = 0; idx < kBindingsPerPublisher; ++idx) {
      for (std::size_t p = 0; p < kPublishers; ++p) {
        sim.schedule_after(
            sim::Duration::milliseconds(20),
            [&, p, idx, reading]() {
              const apps::AttributeSet attrs = attr_set(p, idx);
              const auto encoding = publishers[p].encoder->encode(attrs);
              if (encoding.fresh) {
                const auto definition = apps::encode_definition(
                    code_bits, encoding.code, attrs);
                out.total_bits += definition.size() * 8;
                publishers[p].radio->send(definition);
              }
              util::BufferWriter payload(4);
              payload.u8(static_cast<std::uint8_t>(p));
              payload.u8(static_cast<std::uint8_t>(idx));
              payload.u16(static_cast<std::uint16_t>(reading));
              const auto message = apps::encode_compressed(
                  code_bits, encoding.code, payload.bytes());
              out.total_bits += message.size() * 8;
              publishers[p].radio->send(message);
              out.plain_bits += apps::attribute_bits(attrs) + 32;
            });
        sim.run_until(sim.now() + sim::Duration::milliseconds(20));
      }
    }
    sim.run_until(sim.now() + sim::Duration::milliseconds(200));
  }
  sim.run_until(sim.now() + sim::Duration::seconds(2));

  out.conflicts_detected = decoder.stats().conflicting_redefinitions;
  return out;
}

std::vector<Check> run_codebook(const BenchArgs& args) {
  std::printf("(%zu publishers x %zu live bindings, %d readings per "
              "binding)\n\n",
              kPublishers, kBindingsPerPublisher, kReadingsPerBinding);
  Table table({"code bits", "total bits", "vs plain naming", "right",
               "misdelivered", "unresolved", "conflicts seen", "efficiency"});
  std::vector<std::uint64_t> misdeliveries;
  unsigned best_bits = 0;
  double best_eff = -1.0;
  for (const unsigned bits : {2u, 3u, 4u, 5u, 6u, 8u, 12u, 16u}) {
    const CodebookOutcome out = simulate_codebook(bits, args.seed + bits);
    misdeliveries.push_back(out.misdelivered);
    if (out.efficiency() > best_eff) {
      best_eff = out.efficiency();
      best_bits = bits;
    }
    table.row({std::to_string(bits), std::to_string(out.total_bits),
               fmt(static_cast<double>(out.plain_bits) /
                       static_cast<double>(out.total_bits),
                   2) +
                   "x",
               std::to_string(out.resolved_right),
               std::to_string(out.misdelivered), std::to_string(out.unresolved),
               std::to_string(out.conflicts_detected), fmt(out.efficiency())});
  }
  emit(table, args.csv);
  std::printf("\nbest code width by useful-bit efficiency: %u bits\n",
              best_bits);

  // Figure 1's shape in the §6 context: tiny codes misdeliver, wide codes
  // do not, and the efficiency optimum sits strictly inside the sweep.
  return {{"tiny_codes_misdeliver", misdeliveries.front() > 0},
          {"wide_codes_never_misdeliver", misdeliveries.back() == 0},
          {"efficiency_optimum_interior", best_bits > 2 && best_bits < 16}};
}

// --- dynamic_alloc: address allocation vs churn (§2.2, §2.3) ----------------

struct ChurnOutcome {
  std::uint64_t control_bits = 0;
  std::uint64_t joins = 0;
};

/// `nodes` stations hold addresses; every `rejoin_period` one of them
/// (round-robin) leaves and rejoins, paying the claim/defend protocol again.
ChurnOutcome simulate_churn(std::size_t nodes, sim::Duration rejoin_period,
                            sim::Duration total, std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(nodes), {}, seed);

  net::DynAllocConfig config;
  config.addr_bits = 10;
  config.claim_wait = sim::Duration::milliseconds(200);

  struct Station {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<net::DynAllocNode> node;
  };
  std::vector<Station> stations(nodes);
  ChurnOutcome out;
  for (std::size_t i = 0; i < nodes; ++i) {
    stations[i].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(i), radio::RadioConfig{},
        radio::EnergyModel::rpc_like(), seed + i);
    stations[i].node = std::make_unique<net::DynAllocNode>(
        *stations[i].radio, config, seed * 7 + i);
    stations[i].node->start();
    ++out.joins;
  }

  // Churn driver: the next station in round-robin order releases and
  // restarts every rejoin_period.
  std::size_t victim = 0;
  std::function<void()> churn = [&]() {
    if (sim.now() >= sim::TimePoint::origin() + total) return;
    stations[victim].node->release();
    stations[victim].node->start();
    ++out.joins;
    victim = (victim + 1) % nodes;
    sim.schedule_after(rejoin_period, churn);
  };
  if (rejoin_period > sim::Duration::nanoseconds(0)) {
    sim.schedule_after(rejoin_period, churn);
  }

  sim.run_until(sim::TimePoint::origin() + total + sim::Duration::seconds(2));
  for (const auto& s : stations) {
    out.control_bits += s.node->stats().control_bits_sent;
  }
  return out;
}

struct AuthorityOutcome {
  std::size_t joined = 0;
  std::uint64_t control_bits = 0;
  double worst_delay_s = 0.0;
  bool newcomer_failed = false;  // after the authority died
  std::uint64_t newcomer_requests = 0;
};

/// §2.2's centralized (DHCP/WINS-style) alternative: optimal dense
/// assignment and one round trip per join, until the authority dies.
AuthorityOutcome simulate_authority(std::size_t joiners_count,
                                    std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(
      sim, sim::Topology::full_mesh(joiners_count + 1), {}, seed);
  radio::Radio server_radio(medium, 0, radio::RadioConfig{},
                            radio::EnergyModel::rpc_like(), seed + 1);
  net::CentralAllocServer server(server_radio, 10);

  struct Joiner {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<net::CentralAllocClient> client;
  };
  net::CentralClientConfig cc;
  cc.addr_bits = 10;
  std::vector<Joiner> joiners(joiners_count);
  for (std::size_t i = 0; i < joiners_count; ++i) {
    joiners[i].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(i + 1), radio::RadioConfig{},
        radio::EnergyModel::rpc_like(), seed + 10 + i);
    joiners[i].client = std::make_unique<net::CentralAllocClient>(
        *joiners[i].radio, cc, seed + 100 + i);
    joiners[i].client->start();
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(10));

  AuthorityOutcome out;
  out.control_bits = server.stats().control_bits_sent;
  for (const auto& j : joiners) {
    out.control_bits += j.client->stats().control_bits_sent;
    if (j.client->has_address()) {
      ++out.joined;
      out.worst_delay_s = std::max(out.worst_delay_s,
                                   j.client->acquisition_delay().to_seconds());
    }
  }

  // Kill the authority and let a newcomer try.
  medium.set_enabled(0, false);
  radio::Radio late_radio(medium, static_cast<sim::NodeId>(joiners_count),
                          radio::RadioConfig{}, radio::EnergyModel::rpc_like(),
                          seed + 999);
  net::CentralAllocClient late(late_radio, cc, seed + 1000);
  late.set_on_failed([&out] { out.newcomer_failed = true; });
  late.start();
  sim.run_until(sim.now() + sim::Duration::seconds(10));
  out.newcomer_requests = late.stats().requests_sent;
  return out;
}

std::vector<Check> run_dynamic_alloc(const BenchArgs& args) {
  constexpr std::size_t kNodes = 10;
  const auto total = sim::Duration::from_seconds(args.seconds * 4);
  // The paper's low-data-rate regime: each node sends one 16-bit reading
  // every 10 seconds with a 10-bit local address header.
  constexpr double kDataBitsPerReading = 16.0;
  constexpr unsigned kAddrBits = 10;
  const double readings =
      static_cast<double>(kNodes) * total.to_seconds() / 10.0;
  const double data_bits = readings * kDataBitsPerReading;
  const double header_bits = readings * kAddrBits;

  std::printf("(%zu nodes, one 16-bit reading per node per 10 s, %.0f s; "
              "efficiency = data / (data + headers + allocation control "
              "traffic))\n\n",
              kNodes, total.to_seconds());
  Table table({"mean time between churn events", "joins", "control bits",
               "alloc efficiency", "AFF efficiency (same header)"});

  // AFF at the same header width pays no allocation traffic; its only tax
  // is collisions at density ~ kNodes.
  const double aff_eff = model::e_aff(kDataBitsPerReading, kAddrBits,
                                      static_cast<double>(kNodes));
  const struct {
    const char* label;
    std::int64_t period_ms;  // 0 = static membership
  } regimes[] = {
      {"never (static membership)", 0},
      {"60 s", 60'000},
      {"10 s", 10'000},
      {"2 s", 2'000},
      {"0.5 s", 500},
  };
  std::vector<double> efficiencies;
  for (const auto& regime : regimes) {
    const ChurnOutcome out =
        simulate_churn(kNodes, sim::Duration::milliseconds(regime.period_ms),
                       total, args.seed);
    efficiencies.push_back(
        data_bits /
        (data_bits + header_bits + static_cast<double>(out.control_bits)));
    table.row({regime.label, std::to_string(out.joins),
               std::to_string(out.control_bits), fmt_pct(efficiencies.back()),
               fmt_pct(aff_eff)});
  }
  emit(table, args.csv);

  const AuthorityOutcome central = simulate_authority(kNodes, args.seed);
  std::printf("\ncentralized authority (%zu joining nodes):\n"
              "  live authority:  %zu/%zu joined, %llu control bits, worst "
              "join delay %.0f ms\n"
              "  dead authority:  newcomer %s after %llu requests\n",
              kNodes, central.joined, kNodes,
              static_cast<unsigned long long>(central.control_bits),
              central.worst_delay_s * 1e3,
              central.newcomer_failed ? "failed to join" : "joined",
              static_cast<unsigned long long>(central.newcomer_requests));

  bool monotone = true;
  for (std::size_t i = 1; i < efficiencies.size(); ++i) {
    monotone = monotone && efficiencies[i] <= efficiencies[i - 1] + 1e-9;
  }
  return {{"alloc_efficiency_decays_with_churn", monotone},
          {"aff_beats_alloc_under_heavy_churn", aff_eff > efficiencies.back()},
          {"live_authority_admits_all", central.joined == kNodes},
          {"dead_authority_blocks_joins", central.newcomer_failed}};
}

// --- mobility: motion vs assigned local addresses (§2.2) --------------------

constexpr std::size_t kMobileNodes = 20;
constexpr unsigned kMobileAddrBits = 6;  // 64 addresses for 20 nodes

sim::MobilityConfig mobility_config(double speed, sim::TimePoint stop_at) {
  sim::MobilityConfig config;
  config.field_side = 120.0;
  config.radio_range = 30.0;
  config.speed_min = std::max(0.1, speed * 0.8);
  config.speed_max = std::max(0.2, speed * 1.2);
  config.tick = sim::Duration::milliseconds(500);
  config.stop_at = stop_at;
  return config;
}

/// Connected node pairs holding the same assigned address, summed over
/// one-second samples after a settling period.
std::uint64_t ambiguous_pair_seconds(double speed, double seconds,
                                     std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology(kMobileNodes), {}, seed);
  const auto settle = sim::Duration::seconds(10);
  const auto horizon =
      sim::TimePoint::origin() + settle + sim::Duration::from_seconds(seconds);

  // Mobility owns the topology from t=0 (speed ~0 keeps the snapshot).
  sim::RandomWaypointMobility mobility(
      medium, mobility_config(speed, horizon), seed * 3 + 1);

  struct Station {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<net::DynAllocNode> node;
  };
  std::vector<Station> stations(kMobileNodes);
  for (std::size_t i = 0; i < kMobileNodes; ++i) {
    stations[i].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(i), radio::RadioConfig{},
        radio::EnergyModel::rpc_like(), seed * 5 + i);
    net::DynAllocConfig config;
    config.addr_bits = kMobileAddrBits;
    stations[i].node = std::make_unique<net::DynAllocNode>(
        *stations[i].radio, config, seed * 7 + i);
    // Stagger joins slightly so claims do not all overlap.
    sim.schedule_after(
        sim::Duration::milliseconds(100 * static_cast<std::int64_t>(i)),
        [&stations, i]() { stations[i].node->start(); });
  }
  sim.run_until(sim::TimePoint::origin() + settle);

  std::uint64_t ambiguous = 0;
  while (sim.now() < horizon) {
    sim.run_until(sim.now() + sim::Duration::seconds(1));
    for (std::size_t a = 0; a < kMobileNodes; ++a) {
      if (!stations[a].node->has_address()) continue;
      for (std::size_t b = a + 1; b < kMobileNodes; ++b) {
        if (!stations[b].node->has_address() ||
            stations[a].node->address() != stations[b].node->address()) {
          continue;
        }
        if (medium.topology().hears(static_cast<sim::NodeId>(a),
                                    static_cast<sim::NodeId>(b))) {
          ++ambiguous;
        }
      }
    }
  }
  return ambiguous;
}

/// Instrumented AFF traffic over the same mobility: collision loss.
double aff_loss_under_mobility(double speed, double seconds,
                               std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology(kMobileNodes), {}, seed);
  const auto horizon =
      sim::TimePoint::origin() + sim::Duration::from_seconds(seconds);
  sim::RandomWaypointMobility mobility(
      medium, mobility_config(speed, horizon), seed * 3 + 1);

  aff::AffDriverConfig config;
  config.wire.id_bits = 5;  // contended enough that collisions register
  config.wire.instrumented = true;
  config.reassembly_timeout = sim::Duration::seconds(2);

  struct Stack {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;
  };
  std::vector<Stack> stacks(kMobileNodes);
  for (std::size_t i = 0; i < kMobileNodes; ++i) {
    stacks[i].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(i), radio::RadioConfig{},
        radio::EnergyModel::rpc_like(), seed * 11 + i);
    stacks[i].selector = core::make_selector(core::uniform_selector(),
                                             core::IdSpace(5), seed * 13 + i);
    stacks[i].driver = std::make_unique<aff::AffDriver>(
        *stacks[i].radio, *stacks[i].selector, config, i);
    stacks[i].source = std::make_unique<apps::TrafficSource>(
        sim, *stacks[i].driver,
        std::make_unique<apps::PoissonWorkload>(sim::Duration::seconds(2), 60),
        seed * 17 + i);
    stacks[i].source->start(horizon);
  }
  sim.run_until(horizon + sim::Duration::seconds(10));

  std::uint64_t aff = 0;
  std::uint64_t truth = 0;
  for (const auto& s : stacks) {
    aff += s.driver->stats().packets_delivered;
    truth += s.driver->stats().truth_packets_delivered;
  }
  return truth == 0 ? 0.0
                    : 1.0 - static_cast<double>(aff) / static_cast<double>(truth);
}

std::vector<Check> run_mobility(const BenchArgs& args) {
  const double horizon = args.seconds * 2;
  std::printf("(%zu nodes, 120 m field, 30 m range, %u-bit local addresses; "
              "%.0f s per speed)\n\n",
              kMobileNodes, kMobileAddrBits, horizon);
  Table table({"node speed", "ambiguous addr pair-seconds",
               "AFF collision loss (H=5)"});
  std::vector<std::uint64_t> ambiguity;
  std::vector<double> aff_loss;
  for (const double speed : {0.0, 1.0, 4.0, 8.0}) {
    ambiguity.push_back(ambiguous_pair_seconds(speed, horizon, args.seed));
    aff_loss.push_back(aff_loss_under_mobility(speed, horizon, args.seed));
    table.row({fmt(speed, 1) + " m/s", std::to_string(ambiguity.back()),
               fmt(aff_loss.back())});
  }
  emit(table, args.csv);

  // Motion creates address ambiguity that static membership does not have,
  // while AFF's loss stays in one band across speeds.
  const auto [lo, hi] = std::minmax_element(aff_loss.begin(), aff_loss.end());
  return {{"motion_breaks_assigned_addresses",
           ambiguity.back() > ambiguity.front()},
          {"aff_loss_flat_across_speeds", *hi - *lo < 0.10}};
}

// --- scaling: fixed-width ids over a growing grid (§1, §3.2) ----------------

constexpr unsigned kScalingIdBits = 6;

struct ScalingOutcome {
  std::size_t nodes = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  double max_density = 0.0;

  double delivery_rate() const {
    return published == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(published);
  }
};

/// A side x side grid with five TTL-scoped diffusion regions (four corners
/// and the center), each sink's grid neighbours publishing, all sharing
/// one fixed-width identifier space.
ScalingOutcome simulate_grid(std::size_t side, std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::grid(side, side), {}, seed);

  apps::DiffusionConfig config;
  config.id_bits = kScalingIdBits;
  config.interest_ttl = 2;  // fixed interaction scope, independent of side
  config.data_ttl = 3;
  config.interest_lifetime = sim::Duration::seconds(600);
  // Ephemeral suppression state sized to ~2T, NOT to the id space: a
  // window as large as the pool would classify every reused id as a
  // duplicate and strangle the region (the same sizing rule as the
  // listening selector's 2T window).
  config.data_seen_window = 16;

  struct Node {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<apps::DiffusionNode> diffusion;
    std::uint64_t delivered = 0;
  };
  const std::size_t n = side * side;
  std::vector<Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::NodeId>(i);
    nodes[i].radio = std::make_unique<radio::Radio>(
        medium, id, radio::RadioConfig{}, radio::EnergyModel::rpc_like(),
        seed * 13 + i);
    nodes[i].selector = core::make_selector(
        core::uniform_selector(), core::IdSpace(kScalingIdBits), seed * 17 + i);
    nodes[i].diffusion = std::make_unique<apps::DiffusionNode>(
        *nodes[i].radio, *nodes[i].selector, config,
        static_cast<std::uint32_t>(id));
  }

  auto grid_id = [side](std::size_t x, std::size_t y) { return y * side + x; };

  // Sinks: the four corners and the center — five localized regions that
  // grow farther apart as the grid grows, all sharing the 6-bit space.
  std::vector<std::size_t> sinks = {grid_id(0, 0), grid_id(side - 1, 0),
                                    grid_id(0, side - 1),
                                    grid_id(side - 1, side - 1),
                                    grid_id(side / 2, side / 2)};
  const apps::AttributeSet name = {{"t", "temp"}};
  ScalingOutcome out;
  out.nodes = n;

  for (const std::size_t s : sinks) {
    nodes[s].diffusion->subscribe(
        name, [&nodes, s](std::uint16_t, std::uint32_t) {
          ++nodes[s].delivered;
        });
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(5));

  // Publishers: each sink's orthogonal grid neighbors — a FIXED per-region
  // workload so that growing the grid grows only the idle expanse between
  // regions, which is exactly the locality the thesis relies on.
  std::vector<std::size_t> publishers;
  auto add_publisher = [&](std::size_t x, std::size_t y) {
    const std::size_t id = grid_id(x, y);
    if (std::find(sinks.begin(), sinks.end(), id) != sinks.end()) return;
    if (std::find(publishers.begin(), publishers.end(), id) !=
        publishers.end()) {
      return;
    }
    if (nodes[id].diffusion->has_gradient(name)) publishers.push_back(id);
  };
  for (const std::size_t s : sinks) {
    const std::size_t x = s % side;
    const std::size_t y = s / side;
    if (x > 0) add_publisher(x - 1, y);
    if (x + 1 < side) add_publisher(x + 1, y);
    if (y > 0) add_publisher(x, y - 1);
    if (y + 1 < side) add_publisher(x, y + 1);
  }

  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::size_t p : publishers) {
      sim.schedule_after(sim::Duration::milliseconds(50),  // slight stagger
                         [&nodes, p, round, &out]() {
                           if (nodes[p].diffusion->publish(
                                   {{"t", "temp"}},
                                   static_cast<std::uint16_t>(round))) {
                             ++out.published;
                           }
                         });
      sim.run_until(sim.now() + sim::Duration::milliseconds(50));
    }
    sim.run_until(sim.now() + sim::Duration::seconds(1));
  }
  sim.run_until(sim.now() + sim::Duration::seconds(10));

  for (const std::size_t s : sinks) out.delivered += nodes[s].delivered;
  for (const auto& node : nodes) {
    out.max_density =
        std::max(out.max_density, node.diffusion->local_density());
  }
  return out;
}

std::vector<Check> run_scaling(const BenchArgs& args) {
  std::printf("(fixed %u-bit RETRI ids, fixed interaction scope, 5 "
              "TTL-scoped diffusion regions per grid)\n\n",
              kScalingIdBits);
  Table table({"grid", "nodes", "static bits needed", "RETRI bits",
               "max node density", "delivery rate"});
  std::vector<double> densities;
  std::vector<double> rates;
  std::vector<unsigned> static_bits;
  for (const std::size_t side : {3u, 5u, 7u, 9u, 11u, 13u}) {
    const ScalingOutcome out = simulate_grid(side, args.seed + side);
    densities.push_back(out.max_density);
    rates.push_back(out.delivery_rate());
    static_bits.push_back(util::bits_for(out.nodes));
    table.row({std::to_string(side) + "x" + std::to_string(side),
               std::to_string(out.nodes), std::to_string(static_bits.back()),
               std::to_string(kScalingIdBits), fmt(out.max_density, 1),
               fmt(out.delivery_rate())});
  }
  emit(table, args.csv);

  const auto [dlo, dhi] = std::minmax_element(densities.begin(), densities.end());
  const auto [rlo, rhi] = std::minmax_element(rates.begin(), rates.end());
  return {{"max_density_flat_as_network_grows", *dhi <= 2.0 * *dlo},
          {"delivery_flat_as_network_grows", *rlo >= *rhi - 0.15},
          {"delivery_high_through_fixed_ids", *rlo > 0.7},
          {"static_width_grows", static_bits.back() > static_bits.front()}};
}

}  // namespace

const std::vector<ReproEntry>& repro_entries() {
  static const std::vector<ReproEntry> entries = {
      {"fig1", "Figure 1: AFF vs static efficiency, 16-bit data (§4.2)", {},
       nullptr, nullptr, run_fig1, nullptr},
      {"fig2", "Figure 2: AFF vs static efficiency, 128-bit data (§4.3)", {},
       nullptr, nullptr, run_fig2, nullptr},
      {"fig3", "Figure 3: efficiency vs offered load, 16-bit data (§4.3)", {},
       nullptr, nullptr, run_fig3, nullptr},
      {"fig4", "Figure 4: observed vs predicted collision rate (§5.1)",
       {"fig4"}, print_fig4, judge_fig4, nullptr, nullptr},
      {"hidden_terminal", "listening under hidden terminals (§3.2)",
       {"fig4", "hidden_terminal"}, print_hidden_terminal,
       judge_hidden_terminal, nullptr, nullptr},
      {"txn_lengths", "non-uniform transaction lengths (§4.1)",
       {"txn_lengths"}, print_txn_lengths, judge_txn_lengths, nullptr,
       nullptr},
      {"dynamic_alloc", "dynamic local address allocation vs churn (§2.3)",
       {}, nullptr, nullptr, run_dynamic_alloc, nullptr},
      {"duty_cycle", "duty-cycled listening and its model (§3.2, §8)",
       {"duty_cycle"}, print_duty_cycle, judge_duty_cycle, nullptr, nullptr},
      {"density_estimators", "density estimators for the listening window (§8)",
       {"density_estimators"}, print_density_estimators,
       judge_density_estimators, nullptr, nullptr},
      {"energy", "energy per delivered useful bit (§4.4)", {}, nullptr,
       nullptr, run_energy, nullptr},
      {"scaling", "the scaling thesis over a growing grid (§1, §3.2)", {},
       nullptr, nullptr, run_scaling, nullptr},
      {"mobility", "mobility vs assigned local addresses (§2.2)", {}, nullptr,
       nullptr, run_mobility, nullptr},
      {"codebook", "sizing codebook codes (§6)", {}, nullptr, nullptr,
       run_codebook, nullptr},
      {"burst_loss", "burst vs independent frame loss at equal rates",
       {"burst_loss"}, print_burst_loss, judge_burst_loss, nullptr, nullptr},
      {"selectors", "selector zoo x attacker mode (Eq. 4 efficiency)",
       {"selectors"}, print_selectors, judge_selectors, nullptr,
       selectors_artifact},
  };
  return entries;
}

int run_repro(const BenchArgs& args) {
  std::vector<const ReproEntry*> chosen;
  for (const ReproEntry& entry : repro_entries()) {
    if (args.repro == "all" || args.repro == entry.name) chosen.push_back(&entry);
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "unknown reproduction entry \"%s\"; available: all",
                 args.repro.c_str());
    for (const ReproEntry& entry : repro_entries()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(entry.name.size()),
                   entry.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (!args.out.empty() && (chosen.size() > 1 || !chosen[0]->artifact)) {
    std::fprintf(stderr,
                 "--out: --repro %s writes no artifact; run the grid through "
                 "`retri_bench --sweep NAME --out %s` for its JSON\n",
                 args.repro.c_str(), args.out.c_str());
    return 2;
  }

  std::map<std::string_view, SweepResult> ran;  // fig4 feeds two entries
  std::size_t checked = 0;
  std::size_t failed = 0;
  for (const ReproEntry* entry : chosen) {
    std::printf("== %.*s: %.*s ==\n\n", static_cast<int>(entry->name.size()),
                entry->name.data(), static_cast<int>(entry->title.size()),
                entry->title.data());
    std::fflush(stdout);
    std::vector<Check> checks;
    if (entry->run != nullptr) {
      checks = entry->run(args);
    } else {
      SweepResults results;
      for (const std::string_view name : entry->sweeps) {
        auto it = ran.find(name);
        if (it == ran.end()) {
          runner::SweepSpec spec = runner::make_named_sweep(name).value();
          apply_overrides(spec, args);
          runner::SweepOptions options;
          options.jobs = args.jobs;
          it = ran.emplace(name, runner::SweepRunner(options).run(spec)).first;
        }
        results.push_back(it->second);
      }
      entry->print(results, args.csv);
      if (!args.out.empty()) {
        std::string error;
        if (!obs::write_text_file(args.out, entry->artifact(results),
                                  &error)) {
          std::fprintf(stderr, "retri_bench: %s\n", error.c_str());
          return 2;
        }
        std::printf("\nwrote %s\n", args.out.c_str());
      }
      checks = entry->judge(results);
    }
    std::printf("\n");
    for (const Check& check : checks) {
      std::printf("check %s: %s\n", check.name.c_str(),
                  check.holds ? "holds" : "FAILS");
      failed += check.holds ? 0 : 1;
    }
    checked += checks.size();
    std::printf("\n");
  }
  if (chosen.size() > 1) {
    std::printf("repro: %zu entries, %zu checks, %zu failed\n", chosen.size(),
                checked, failed);
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace retri::bench

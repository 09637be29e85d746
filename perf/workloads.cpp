// The two workloads. Each one sets up K times (setup_s is their median),
// then runs closed-loop passes until --seconds of host time have elapsed,
// checking every pass against the recorded result digest. The traced run
// (--trace 1) instead observes one stretch of the workload with spans
// around each call into the program, replays each layer's public
// functions on workload-shaped inputs, and attributes the measured op time
// to layers by multiplying each per-call cost by the program's own call
// counts (ExperimentResult::metrics).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "perf.hpp"
#include "runner/result_sink.hpp"
#include "runner/seeds.hpp"
#include "runner/sweep.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "util/alloc_hook.hpp"

namespace retri::perf {
namespace {

constexpr int kSetupReps = 5;
/// Share of --seconds the traced run spends observing the workload; the
/// rest goes to the layer replays.
constexpr double kTracedObserveShare = 0.4;

unsigned nproc() { return std::max(1U, std::thread::hardware_concurrency()); }

// --- metric tables ------------------------------------------------------------

/// End-to-end metrics (BENCHMARK.json "end_to_end"), every workload.
struct Timed {
  std::vector<double> setup_s;  // one per setup repetition
  std::vector<double> pass_s;   // host time of each full pass
  std::vector<double> op_ms;    // per-operation latency
  double timed_s = 0.0;         // summed host time of the timed calls
  double cells = 0.0;           // cells completed or served
  double deliveries = 0.0;      // medium deliveries attempted (or served)
  double allocs = 0.0;          // heap allocations inside the timed calls
};

/// a / b, or 0 when b is 0 (only a failed run divides by zero; its result
/// line must still be valid JSON).
double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

void report_e2e(const Timed& t, Outcome& out) {
  Report& r = out.report;
  const double p90 = quantile(t.op_ms, 0.9);
  const auto beyond = std::count_if(t.op_ms.begin(), t.op_ms.end(),
                                    [p90](double v) { return v > p90; });
  r.add("wall_s", median(t.pass_s), "s");
  r.add("cells_per_s", ratio(t.cells, t.timed_s), "1/s");
  r.add("deliveries_per_s", ratio(t.deliveries, t.timed_s), "1/s");
  r.add("latency_ms_p50", median(t.op_ms), "ms");
  r.add("allocs_per_delivery", ratio(t.allocs, t.deliveries), "count");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("setup_s", median(t.setup_s), "s");
  // p90 is printed, not gated: on a shared host it jumps whenever a run
  // catches a few seconds of a slow phase (10-40% run-to-run spread).
  r.note("latency_ms_p90 = " + std::to_string(p90) +
         " ms; latency samples: n=" + std::to_string(t.op_ms.size()) +
         ", beyond p90=" + std::to_string(beyond) +
         "; passes: " + std::to_string(t.pass_s.size()));
}

/// Per-layer metrics (BENCHMARK.json "per_layer"). Every workload prints
/// all of them; a layer off the workload's path reads 0.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const char* policy : {"uniform", "listening", "counter",
                               "hashed_counter", "permutation", "hybrid"}) {
      selector_names_.push_back(std::string("core.selector.ns_per_select.") +
                                policy);
    }
    const std::vector<std::pair<std::string, std::string>> table = {
        {"sim.engine.ns_per_event", "ns"},
        {"sim.medium.ns_per_tx_f6", "ns"},
        {"sim.medium.allocs_per_tx", "count"},
        {"sim.medium.delivered_frac", "ratio"},
        {"aff.wire.encode_ns", "ns"},
        {"aff.wire.decode_ns", "ns"},
        {"aff.fragmenter.ns_per_packet", "ns"},
        {"aff.fragmenter.allocs_per_packet", "count"},
        {"aff.reassembler.ns_per_fragment", "ns"},
        {"aff.reassembler.allocs_per_fragment", "count"},
        {"aff.rx.fragments_seen", "count"},
        {"aff.rx.conflicting_writes", "count"},
        {"aff.rx.evicted", "count"},
        {"aff.rx.accept_frac", "ratio"},
        {"aff.delivery_ratio", "ratio"},
        {"util.crc32.ns_per_byte_80", "ns"},
        {"util.crc32.ns_per_byte_240", "ns"},
        {selector_names_[0], "ns"},
        {selector_names_[1], "ns"},
        {selector_names_[2], "ns"},
        {selector_names_[3], "ns"},
        {selector_names_[4], "ns"},
        {selector_names_[5], "ns"},
        {"core.selector.selects", "count"},
        {"fault.attacker.frames_forged", "count"},
        {"runner.cell_ms_p50", "ms"},
        {"runner.cell_ms_max", "ms"},
        {"runner.pool_efficiency", "ratio"},
        {"runner.critical_path_s", "s"},
        {"runner.tail_s", "s"},
        {"obs.metrics_per_cell", "count"},
        {"obs.trace_overhead_frac", "ratio"},
        {"serve.codec.decode_result_us", "us"},
        {"serve.codec.encode_result_us", "us"},
        {"serve.fingerprint_us", "us"},
        {"serve.cache.get_us", "us"},
        {"serve.body_bytes", "B"},
        {"serve.cache.put_us", "us"},
        {"serve.cache.reload_ms", "ms"},
        {"serve.cache.hit_frac", "ratio"},
        {"serve.client.retries", "count"},
        {"serve.jobs.rejected", "count"},
        {"layer.measured_ms_per_op", "ms"},
        {"layer.attributed_ms_per_op", "ms"},
        {"layer.unattributed_frac", "ratio"},
    };
    for (const auto& [name, unit] : table) {
      entries_.push_back({name, 0.0, unit});
    }
  }

  void set(std::string_view name, double value) {
    for (Report::Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + std::string(name));
  }

  /// Sets the measured/attributed pair and the unattributed remainder.
  void attribution(double measured_ms, double attributed_ms) {
    set("layer.measured_ms_per_op", measured_ms);
    set("layer.attributed_ms_per_op", attributed_ms);
    set("layer.unattributed_frac",
        measured_ms > 0 ? 1.0 - attributed_ms / measured_ms : 0.0);
  }

  void emit(Report& report) const {
    for (const Report::Entry& e : entries_) report.add(e.name, e.value, e.unit);
  }

 private:
  std::vector<std::string> selector_names_;
  std::vector<Report::Entry> entries_;
};

// --- program counters ---------------------------------------------------------

double sum_suffix(const obs::MetricsSnapshot& m, std::string_view suffix) {
  double total = 0.0;
  for (const obs::MetricValue& v : m.entries) {
    if (v.kind == obs::MetricKind::kCounter && v.name.size() >= suffix.size() &&
        v.name.compare(v.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += static_cast<double>(v.count);
    }
  }
  return total;
}

/// Call counts of one cell, from its metrics snapshot.
struct CellCounts {
  double frames_sent = 0, deliveries = 0, delivered = 0, packets_sent = 0,
         rx_seen = 0, truth_seen = 0, rx_conflicts = 0, rx_evicted = 0,
         rx_accepted = 0, selects = 0, observes = 0, forged = 0,
         metrics = 0, aff_delivered = 0, truth_delivered = 0;

  static CellCounts of(const runner::ExperimentResult& r) {
    const obs::MetricsSnapshot& m = r.metrics;
    CellCounts c;
    c.frames_sent = sum_suffix(m, "medium.frames_sent");
    c.deliveries = sum_suffix(m, "medium.deliveries_attempted");
    c.delivered = sum_suffix(m, "medium.delivered");
    c.packets_sent = sum_suffix(m, ".aff.packets_sent");
    c.rx_seen = sum_suffix(m, ".aff.rx.fragments_seen");
    c.truth_seen = sum_suffix(m, ".aff.truth.fragments_seen");
    c.rx_conflicts = sum_suffix(m, ".aff.rx.conflicting_writes");
    c.rx_evicted = sum_suffix(m, ".aff.rx.evicted");
    c.rx_accepted = sum_suffix(m, ".aff.rx.accepted_fragments");
    c.selects = sum_suffix(m, ".selector.selects");
    c.observes = sum_suffix(m, ".selector.observes");
    c.forged = sum_suffix(m, "attacker.frames_forged");
    c.metrics = static_cast<double>(m.entries.size());
    c.aff_delivered = static_cast<double>(r.aff_delivered);
    c.truth_delivered = static_cast<double>(r.truth_delivered);
    return c;
  }

  void add(const CellCounts& o) {
    frames_sent += o.frames_sent; deliveries += o.deliveries;
    delivered += o.delivered; packets_sent += o.packets_sent;
    rx_seen += o.rx_seen; truth_seen += o.truth_seen;
    rx_conflicts += o.rx_conflicts; rx_evicted += o.rx_evicted;
    rx_accepted += o.rx_accepted; selects += o.selects;
    observes += o.observes; forged += o.forged; metrics += o.metrics;
    aff_delivered += o.aff_delivered; truth_delivered += o.truth_delivered;
  }
};

// --- simulation grids ---------------------------------------------------------

/// One (point, trial) run of run_experiment, with its trial seed applied.
struct Cell {
  std::string label;
  std::size_t point = 0;
  runner::ExperimentConfig config;
};

runner::SweepSpec named_spec(std::string_view name, std::uint64_t seed,
                             unsigned trials, double send_seconds) {
  runner::SweepSpec spec = runner::make_named_sweep(name).value();
  spec.trials = trials;
  spec.base.seed = seed;
  if (send_seconds > 0) {
    spec.base.send_duration = sim::Duration::from_seconds(send_seconds);
  }
  return spec;
}

/// Flattens the grid exactly as SweepRunner does (point-major, trial-minor).
std::vector<Cell> expand_cells(const runner::SweepSpec& spec) {
  std::vector<Cell> cells;
  const std::vector<runner::SweepPoint> points = spec.expand();
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (unsigned t = 0; t < spec.trials; ++t) {
      Cell cell{points[p].label, p, points[p].config};
      cell.config.seed = runner::derive_trial_seed(points[p].config.seed, t);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Digest of a sweep result: runner::fingerprint of every cell, grid order.
std::string sweep_digest(const runner::SweepResult& result) {
  Digest digest;
  for (const runner::SweepPointResult& point : result.points) {
    for (const runner::ExperimentResult& trial : point.trials) {
      digest.add(runner::fingerprint(trial));
    }
  }
  return digest.hex();
}

DigestGate make_gate(const Options& o, const ExpectedDigests& expected) {
  std::string digest = expected.find(o.workload, o.seed);
  const bool recorded = !digest.empty();
  if (recorded && o.inject_mismatch) digest = "0000000000000000";
  return DigestGate(digest, recorded);
}

void note_gate(const DigestGate& gate, const Options& o, Outcome& out) {
  out.report.note("result digest " + gate.first() +
                  (gate.recorded()
                       ? " (seed " + std::to_string(o.seed) + " recorded)"
                       : " (seed " + std::to_string(o.seed) +
                             " not recorded: checked for determinism only)"));
}

/// Emits the per-layer metrics, writes the spans and notes the digest.
void finish_traced(const Tracer& tracer, const LayerMetrics& layers,
                   const DigestGate& gate, const Options& o, Outcome& out) {
  layers.emit(out.report);
  if (const std::string e = tracer.write(o.trace_out); !e.empty()) {
    out.report.note("trace not written: " + e);
  }
  note_gate(gate, o, out);
}

/// Runs `cells` serially, timing each; returns the per-cell results.
/// Failures (exceptions, degenerate cells) are charged to `out`.
struct SerialPass {
  std::vector<runner::ExperimentResult> results;
  std::vector<double> cell_ms;
  std::vector<double> point_done_s;  // offsets from pass start
  double seconds = 0.0;
  double allocs = 0.0;
  bool ok = true;
};

SerialPass run_serial(const std::vector<Cell>& cells, Outcome& out,
                      Tracer* tracer = nullptr) {
  SerialPass pass;
  const obs::SpanId sweep =
      tracer ? tracer->begin("runner.sweep", "runner") : obs::SpanId::none();
  const double start = now_s();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const obs::SpanId span =
        tracer ? tracer->begin("runner.cell " + cells[i].label, "runner", sweep)
               : obs::SpanId::none();
    const std::uint64_t allocs_before = util::alloc_count();
    const double t0 = now_s();
    runner::ExperimentResult result;
    std::string why;
    try {
      result = runner::run_experiment(cells[i].config);
      why = degenerate(result);
    } catch (const std::exception& e) {
      why = e.what();
    }
    const double dt = now_s() - t0;
    pass.allocs += static_cast<double>(util::alloc_count() - allocs_before);
    if (tracer) tracer->end(span);
    pass.seconds += dt;
    pass.cell_ms.push_back(dt * 1e3);
    if (!why.empty()) {
      out.fail(1, cells[i].label + ": " + why);
      pass.ok = false;
    }
    if (i + 1 == cells.size() || cells[i + 1].point != cells[i].point) {
      pass.point_done_s.push_back(now_s() - start);
    }
    pass.results.push_back(std::move(result));
  }
  if (tracer) tracer->end(sweep);
  return pass;
}

std::string cells_digest(const std::vector<runner::ExperimentResult>& results) {
  Digest digest;
  for (const runner::ExperimentResult& r : results) {
    digest.add(runner::fingerprint(r));
  }
  return digest.hex();
}

/// `obs` span recording cost: sample cells with and without a SpanRecorder
/// passed to run_experiment, interleaved; returns traced/untraced - 1.
double trace_overhead(const std::vector<Cell>& cells, Tracer& tracer) {
  const obs::SpanId span = tracer.begin("layer.obs.spans", "layer");
  double plain = 0.0;
  double traced = 0.0;
  const std::size_t step = std::max<std::size_t>(1, cells.size() / 4);
  for (std::size_t i = 0; i < cells.size(); i += step) {
    double t0 = now_s();
    runner::run_experiment(cells[i].config);
    plain += now_s() - t0;
    obs::SpanRecorder spans;
    t0 = now_s();
    runner::run_experiment(cells[i].config, &spans);
    traced += now_s() - t0;
  }
  tracer.end(span);
  return traced / plain - 1.0;
}

/// Per-call costs of the simulation layers at one cell's shape, cached.
class SimCosts {
 public:
  explicit SimCosts(Tracer& tracer) : tracer_(tracer) {}

  Cost medium(std::size_t nodes) {
    return cached(medium_, nodes, "layer.sim.medium", [&] {
      return medium_tx_cost(nodes);
    });
  }
  Cost fragmenter(unsigned h) {
    return cached(frag_, h, "layer.aff.fragmenter",
                  [&] { return fragmenter_cost(h); });
  }
  Cost encode(unsigned h) {
    return cached(enc_, h, "layer.aff.wire.encode",
                  [&] { return wire_encode_cost(h); });
  }
  Cost decode(unsigned h) {
    return cached(dec_, h, "layer.aff.wire.decode",
                  [&] { return wire_decode_cost(h); });
  }
  Cost reassembler(unsigned h, std::size_t concurrent) {
    return cached(reasm_, std::pair{h, concurrent}, "layer.aff.reassembler",
                  [&] { return reassembler_cost(h, concurrent); });
  }
  Cost selector(const core::SelectorSpec& spec, unsigned h, double ratio) {
    return cached(sel_, std::pair{core::describe(spec), h},
                  "layer.core.selector",
                  [&] { return selector_cost(spec, h, ratio); });
  }

  /// Nodes on the medium for a cell (receiver + senders [+ attacker]).
  static std::size_t nodes(const runner::ExperimentConfig& c) {
    return c.senders + 1 + (c.attacker.active() ? 1 : 0);
  }

  /// Host ms of one cell attributed to the replayed layers. The replays do
  /// not overlap: the medium cost includes its delivery events, the
  /// fragmenter its encodes and packet CRC, the reassembler its CRC.
  double attributed_ms(const Cell& cell, const CellCounts& c, double ratio) {
    const unsigned h = cell.config.id_bits;
    const double ns =
        c.frames_sent * medium(nodes(cell.config)).ns +
        c.packets_sent * fragmenter(h).ns + c.delivered * decode(h).ns +
        (c.rx_seen + c.truth_seen) * reassembler(h, cell.config.senders).ns +
        c.selects * selector(cell.config.selector, h, ratio).ns;
    return ns * 1e-6;
  }

 private:
  template <typename Map, typename Key, typename Fn>
  Cost cached(Map& map, const Key& key, std::string_view span, Fn fn) {
    const auto it = map.find(key);
    if (it != map.end()) return it->second;
    const obs::SpanId id = tracer_.begin(span, "layer");
    const Cost cost = fn();
    tracer_.end(id);
    return map.emplace(key, cost).first->second;
  }

  Tracer& tracer_;
  std::map<std::size_t, Cost> medium_;
  std::map<unsigned, Cost> frag_, enc_, dec_;
  std::map<std::pair<unsigned, std::size_t>, Cost> reasm_;
  std::map<std::pair<std::string_view, unsigned>, Cost> sel_;
};

/// Per-layer report of the sweep workload: replays at each
/// cell's shape, weighted equally over cells, plus the program's counts.
void report_sim_layers(const std::vector<Cell>& cells, const SerialPass& pass,
                       Tracer& tracer, LayerMetrics& layers) {
  CellCounts total;
  std::vector<CellCounts> per_cell;
  for (const runner::ExperimentResult& r : pass.results) {
    per_cell.push_back(CellCounts::of(r));
    total.add(per_cell.back());
  }
  const double n = static_cast<double>(cells.size());
  const double observes_per_select = ratio(total.observes, total.selects);

  SimCosts costs(tracer);
  double attributed_ms = 0.0;
  double enc = 0, dec = 0, frag = 0, frag_allocs = 0, reasm = 0,
         reasm_allocs = 0;
  std::map<std::string, std::vector<double>> select_ns;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const unsigned h = cells[i].config.id_bits;
    attributed_ms += costs.attributed_ms(cells[i], per_cell[i], observes_per_select);
    enc += costs.encode(h).ns;
    dec += costs.decode(h).ns;
    frag += costs.fragmenter(h).ns;
    frag_allocs += costs.fragmenter(h).allocs;
    reasm += costs.reassembler(h, cells[i].config.senders).ns;
    reasm_allocs += costs.reassembler(h, cells[i].config.senders).allocs;
    select_ns[std::string(core::to_string(cells[i].config.selector.policy))]
        .push_back(costs.selector(cells[i].config.selector, h, observes_per_select).ns);
  }
  const Cost f6 = costs.medium(6);
  layers.set("sim.medium.ns_per_tx_f6", f6.ns);
  layers.set("sim.medium.allocs_per_tx", f6.allocs);
  {
    const obs::SpanId span = tracer.begin("layer.sim.engine", "layer");
    layers.set("sim.engine.ns_per_event", engine_event_cost().ns);
    tracer.end(span);
  }
  layers.set("sim.medium.delivered_frac", total.delivered / total.deliveries);
  layers.set("aff.wire.encode_ns", enc / n);
  layers.set("aff.wire.decode_ns", dec / n);
  layers.set("aff.fragmenter.ns_per_packet", frag / n);
  layers.set("aff.fragmenter.allocs_per_packet", frag_allocs / n);
  layers.set("aff.reassembler.ns_per_fragment", reasm / n);
  layers.set("aff.reassembler.allocs_per_fragment", reasm_allocs / n);
  layers.set("aff.rx.fragments_seen", total.rx_seen / n);
  layers.set("aff.rx.conflicting_writes", total.rx_conflicts / n);
  layers.set("aff.rx.evicted", total.rx_evicted / n);
  layers.set("aff.rx.accept_frac", total.rx_accepted / total.rx_seen);
  layers.set("aff.delivery_ratio", total.aff_delivered / total.truth_delivered);
  {
    const obs::SpanId span = tracer.begin("layer.util.crc32", "layer");
    layers.set("util.crc32.ns_per_byte_80", crc32_ns_per_byte(80));
    layers.set("util.crc32.ns_per_byte_240", crc32_ns_per_byte(240));
    tracer.end(span);
  }
  for (const auto& [policy, ns] : select_ns) {
    layers.set("core.selector.ns_per_select." + policy, median(ns));
  }
  layers.set("core.selector.selects", total.selects / n);
  layers.set("fault.attacker.frames_forged", total.forged / n);
  layers.set("obs.metrics_per_cell", total.metrics / n);
  layers.set("obs.trace_overhead_frac", trace_overhead(cells, tracer));
  layers.set("runner.cell_ms_p50", median(pass.cell_ms));
  layers.set("runner.cell_ms_max", quantile(pass.cell_ms, 1.0));
  layers.attribution(sum(pass.cell_ms) / n, attributed_ms / n);
}

/// runner.* metrics of one pass: the serial cell times against the pass's
/// wall time on `jobs` workers and its point-completion times.
void report_runner(const SerialPass& serial, double wall_s,
                   std::vector<double> point_done_s, unsigned jobs,
                   LayerMetrics& layers) {
  const double serial_s = sum(serial.cell_ms) * 1e-3;
  const double max_cell_s = quantile(serial.cell_ms, 1.0) * 1e-3;
  std::sort(point_done_s.begin(), point_done_s.end());
  const std::size_t idx90 = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(point_done_s.size()))) - 1;
  layers.set("runner.pool_efficiency", serial_s / (jobs * wall_s));
  layers.set("runner.critical_path_s", std::max(serial_s / jobs, max_cell_s));
  layers.set("runner.tail_s", wall_s - point_done_s[idx90]);
}

// --- selectors_parallel -------------------------------------------------------

struct GridSetup {
  runner::SweepSpec spec;
  std::vector<Cell> cells;
};

/// Builds the grid and runs, as warm-up, the first cell of each selector
/// policy in it (so every policy's code is warm), `reps` times.
GridSetup setup_grid(const Options& o, std::string_view sweep, unsigned trials,
                     double send_seconds, int reps, Timed& t, Outcome& out) {
  GridSetup g;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    g.spec = named_spec(sweep, o.seed, trials, send_seconds);
    g.cells = expand_cells(g.spec);
    std::vector<core::SelectorPolicy> warmed;
    for (const Cell& cell : g.cells) {
      const core::SelectorPolicy policy = cell.config.selector.policy;
      if (std::find(warmed.begin(), warmed.end(), policy) != warmed.end()) {
        continue;
      }
      warmed.push_back(policy);
      const runner::ExperimentResult warm = runner::run_experiment(cell.config);
      if (const std::string why = degenerate(warm); !why.empty()) {
        out.fail(1, "warm-up " + cell.label + ": " + why);
      }
    }
    t.setup_s.push_back(now_s() - t0);
  }
  return g;
}

/// Send window of the selectors grid: a sixth of the sweep's 30 s default,
/// so several passes fit in one run.
constexpr double kSelectorsSendSeconds = 5.0;

struct ParallelPass {
  runner::SweepResult result;
  std::vector<double> point_done_s;
  double seconds = 0.0;
  double allocs = 0.0;
};

ParallelPass run_parallel(const runner::SweepSpec& spec, unsigned jobs) {
  ParallelPass pass;
  runner::SweepOptions options;
  options.jobs = jobs;
  double start = 0.0;
  options.on_point_done = [&](const runner::SweepProgress&) {
    pass.point_done_s.push_back(now_s() - start);
  };
  const std::uint64_t allocs_before = util::alloc_count();
  start = now_s();
  pass.result = runner::SweepRunner(options).run(spec);
  pass.seconds = now_s() - start;
  pass.allocs = static_cast<double>(util::alloc_count() - allocs_before);
  return pass;
}

}  // namespace

Outcome run_selectors_parallel(const Options& o,
                               const ExpectedDigests& expected) {
  Outcome out;
  Timed t;
  const int reps = o.trace ? 1 : kSetupReps;
  const unsigned jobs = nproc();
  const GridSetup g = setup_grid(o, "selectors", 1, kSelectorsSendSeconds,
                                 reps, t, out);
  DigestGate gate = make_gate(o, expected);

  if (o.trace) {
    Tracer tracer;
    LayerMetrics layers;
    // Serial pass: each cell's own host time (Σ serial cell s) and counts.
    const SerialPass serial = run_serial(g.cells, out, &tracer);
    out.attempted += g.cells.size();
    if (const std::string e = gate.check(cells_digest(serial.results));
        serial.ok && !e.empty()) {
      out.fail(g.cells.size(), e);
    }
    // Parallel pass: the pool's wall time and its tail.
    const obs::SpanId span = tracer.begin("runner.sweep parallel", "runner");
    const ParallelPass pass = run_parallel(g.spec, jobs);
    tracer.end(span);
    out.attempted += g.cells.size();
    if (const std::string e = gate.check(sweep_digest(pass.result));
        !e.empty()) {
      out.fail(g.cells.size(), e);
    }
    if (serial.ok) {
      report_sim_layers(g.cells, serial, tracer, layers);
      report_runner(serial, pass.seconds, pass.point_done_s, jobs, layers);
    }
    finish_traced(tracer, layers, gate, o, out);
    return out;
  }

  const double start = now_s();
  while (t.pass_s.empty() || now_s() - start < o.seconds) {
    ParallelPass pass;
    try {
      pass = run_parallel(g.spec, jobs);
    } catch (const std::exception& e) {
      out.attempted += g.cells.size();
      out.fail(g.cells.size(), e.what());
      break;
    }
    out.attempted += g.cells.size();
    std::uint64_t bad = 0;
    for (const runner::SweepPointResult& point : pass.result.points) {
      for (const runner::ExperimentResult& r : point.trials) {
        if (const std::string why = degenerate(r); !why.empty()) {
          ++bad;
          out.fail(1, point.label + ": " + why);
        }
        t.deliveries += static_cast<double>(r.frames_attempted);
      }
    }
    if (const std::string e = gate.check(sweep_digest(pass.result));
        bad == 0 && !e.empty()) {
      out.fail(g.cells.size(), e);
    }
    t.pass_s.push_back(pass.seconds);
    for (const double s : pass.point_done_s) t.op_ms.push_back(s * 1e3);
    t.timed_s += pass.seconds;
    t.cells += static_cast<double>(g.cells.size());
    t.allocs += pass.allocs;
  }
  report_e2e(t, out);
  note_gate(gate, o, out);
  return out;
}

// --- serve_warm -----------------------------------------------------------------

namespace {

/// The served grid: fig4 at a 2 s send window, two trials per point.
constexpr double kServeSendSeconds = 2.0;
constexpr unsigned kServeTrials = 2;
/// Warm submits per pass: wall_s is the median pass, latency_ms_p50 the
/// median single submit.
constexpr int kSubmitsPerPass = 10;

/// A retri_serve daemon (serve::run_daemon) on its own thread; the
/// destructor asks it to shut down and joins it.
class Daemon {
 public:
  Daemon(std::string socket, std::string store, std::string state,
         unsigned jobs)
      : socket_(std::move(socket)) {
    serve::DaemonOptions options;
    options.socket_path = socket_;
    options.server.cache.dir = std::move(store);
    options.server.state_dir = std::move(state);
    options.server.jobs = jobs;
    thread_ = std::thread([this, options] {
      try {
        auto result = serve::run_daemon(options);
        if (!result.ok()) error_ = result.error();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon answers a status request.
  util::Result<serve::ServerStatus, serve::ClientError> status() const {
    return serve::fetch_status(socket_, serve::ClientOptions{});
  }

  /// Shuts the daemon down and joins it; returns its error, if any.
  std::string stop() {
    if (thread_.joinable()) {
      static_cast<void>(
          serve::request_shutdown(socket_, serve::ClientOptions{}));
      thread_.join();
    }
    return error_;
  }

  const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  std::string error_;  // written by the daemon thread, read after join
  std::thread thread_;
};

/// Restores the working directory on scope exit.
class ScopedChdir {
 public:
  explicit ScopedChdir(const std::string& dir)
      : previous_(std::filesystem::current_path()) {
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
  }
  ~ScopedChdir() {
    std::error_code ignored;  // best effort: never throw from a destructor
    std::filesystem::current_path(previous_, ignored);
  }
  ScopedChdir(const ScopedChdir&) = delete;
  ScopedChdir& operator=(const ScopedChdir&) = delete;

 private:
  std::filesystem::path previous_;
};

struct ServeSetup {
  std::unique_ptr<Daemon> daemon;
  std::string reference;  // local run's artifact (ResultSink JSON)
  runner::SweepResult local;
};

/// Start the daemon, populate its store cold (misses: simulate + durable
/// put), check the served artifact against a local run, then restart the
/// daemon so it reloads the store. Runs in a fresh directory `dir`.
ServeSetup setup_serve(const runner::SweepSpec& spec, const std::string& dir,
                       unsigned jobs, Outcome& out) {
  ServeSetup s;
  std::filesystem::create_directories(dir);
  const std::string socket = dir + "/d.sock";
  const std::string store = dir + "/store";
  const std::string state = dir + "/state";
  const std::uint64_t cells = spec.point_count() * spec.trials;
  {
    Daemon cold(socket, store, state, jobs);
    if (!cold.status().ok()) out.fail(1, "daemon did not come up");
    auto served = serve::run_sweep_via(socket, spec, serve::ClientOptions{});
    ++out.attempted;
    if (!served.ok()) {
      out.fail(1, "cold submit: " + served.error().describe());
    } else {
      runner::SweepOptions options;
      options.jobs = jobs;
      s.local = runner::SweepRunner(options).run(spec);
      s.reference = runner::ResultSink::to_json(s.local);
      if (served.value().misses != cells) {
        out.fail(1, "cold submit was not all misses");
      } else if (runner::ResultSink::to_json(served.value().result) !=
                 s.reference) {
        out.fail(1, "cold served artifact differs from the local run");
      }
    }
    if (const std::string e = cold.stop(); !e.empty()) out.fail(1, e);
  }
  s.daemon = std::make_unique<Daemon>(socket, store, state, jobs);
  if (!s.daemon->status().ok()) out.fail(1, "restarted daemon did not come up");
  return s;
}

}  // namespace

Outcome run_serve_warm(const Options& o, const ExpectedDigests& expected) {
  Outcome out;
  Timed t;
  const int reps = o.trace ? 1 : kSetupReps;
  const unsigned jobs = std::min(nproc(), 4U);
  const runner::SweepSpec spec =
      named_spec("fig4", o.seed, kServeTrials, kServeSendSeconds);
  const double cells = static_cast<double>(spec.point_count() * spec.trials);
  DigestGate gate = make_gate(o, expected);

  // Unix socket paths are short; work relative to the scratch directory.
  ScopedChdir in_work_dir(o.work_dir);
  ServeSetup s;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string dir = "rep" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    const double t0 = now_s();
    ServeSetup next = setup_serve(spec, dir, jobs, out);
    t.setup_s.push_back(now_s() - t0);
    s = std::move(next);  // the previous rep's daemon stops here
  }

  obs::MetricsRegistry client_metrics;
  serve::ClientOptions client;
  client.metrics = &client_metrics;
  double hits = 0.0;
  double served_cells = 0.0;
  // One warm submit: every cell must hit, and the served artifact must be
  // byte-identical to the local run's.
  auto submit = [&](Tracer* tracer) -> double {
    const obs::SpanId span =
        tracer ? tracer->begin("serve.submit", "serve") : obs::SpanId::none();
    const std::uint64_t allocs_before = util::alloc_count();
    const double t0 = now_s();
    auto served = serve::run_sweep_via(s.daemon->socket(), spec, client);
    const double dt = now_s() - t0;
    t.allocs += static_cast<double>(util::alloc_count() - allocs_before);
    if (tracer) tracer->end(span);
    out.attempted += 1;
    if (!served.ok()) {
      out.fail(1, "warm submit: " + served.error().describe());
      return dt;
    }
    const serve::ServedSweep& r = served.value();
    hits += static_cast<double>(r.hits);
    served_cells += static_cast<double>(r.hits + r.misses);
    if (r.misses != 0 || r.hits != cells) {
      out.fail(1, "warm submit had " + std::to_string(r.misses) + " misses");
    } else if (const std::string e = gate.check(sweep_digest(r.result));
               !e.empty()) {
      out.fail(1, e);
    } else if (runner::ResultSink::to_json(r.result) != s.reference) {
      out.fail(1, "served artifact differs from the local run");
    }
    return dt;
  };

  if (o.trace) {
    Tracer tracer;
    LayerMetrics layers;
    std::vector<double> submit_ms;
    const double start = now_s();
    while (submit_ms.empty() ||
           now_s() - start < o.seconds * kTracedObserveShare) {
      submit_ms.push_back(submit(&tracer) * 1e3);
    }
    // Replays over the cache bodies of the served grid.
    std::vector<std::string> bodies;
    std::vector<const runner::ExperimentResult*> results;
    for (const runner::SweepPointResult& point : s.local.points) {
      for (const runner::ExperimentResult& trial : point.trials) {
        results.push_back(&trial);
      }
    }
    const std::size_t n = results.size();
    // Host us per call of `call(i)` over the grid's n cells.
    auto per_call_us = [&](std::string_view name, auto call) {
      const obs::SpanId span = tracer.begin(name, "layer");
      const Cost cost = measure(n, [&] {
        for (std::size_t i = 0; i < n; ++i) call(i);
      });
      tracer.end(span);
      return cost.ns * 1e-3;
    };
    double body_bytes = 0.0;
    for (const runner::ExperimentResult* r : results) {
      bodies.push_back(serve::encode_result(*r));
      body_bytes += static_cast<double>(bodies.back().size());
    }
    std::vector<runner::ExperimentResult> decoded(n);
    std::vector<std::string> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      decoded[i] = serve::decode_result_text(bodies[i]).value();
      keys[i] = "k" + std::to_string(i);
    }
    volatile std::size_t sink = 0;
    const double encode_us = per_call_us("layer.serve.codec.encode",
        [&](std::size_t i) { sink = sink + serve::encode_result(*results[i]).size(); });
    const double decode_us = per_call_us("layer.serve.codec.decode",
        [&](std::size_t i) {
          sink = sink + serve::decode_result_text(bodies[i]).value().tx_bits;
        });
    const double fingerprint_us = per_call_us("layer.serve.fingerprint",
        [&](std::size_t i) { sink = sink + runner::fingerprint(decoded[i]).size(); });
    serve::ResultCache memory(serve::CacheOptions{});
    for (std::size_t i = 0; i < n; ++i) {
      memory.put(keys[i], "sweep-trial", runner::fingerprint(decoded[i]), bodies[i]);
    }
    const double get_us = per_call_us("layer.serve.cache.get",
        [&](std::size_t i) { sink = sink + memory.get(keys[i])->body.size(); });
    // Durable put (atomic write + fsync) and the store reload on restart.
    const std::string store = "replay-store";
    std::filesystem::remove_all(store);
    serve::CacheOptions durable;
    durable.dir = store;
    double put_us = 0.0;
    {
      serve::ResultCache disk(durable);
      const obs::SpanId span = tracer.begin("layer.serve.cache.put", "layer");
      const double t0 = now_s();
      for (std::size_t i = 0; i < n; ++i) {
        disk.put(keys[i], "sweep-trial", runner::fingerprint(decoded[i]), bodies[i]);
      }
      put_us = (now_s() - t0) * 1e6 / static_cast<double>(n);
      tracer.end(span);
    }
    std::vector<double> reload_ms;
    {
      const obs::SpanId span = tracer.begin("layer.serve.cache.reload", "layer");
      for (int rep = 0; rep < 5; ++rep) {
        const double t0 = now_s();
        serve::ResultCache reloaded(durable);
        reload_ms.push_back((now_s() - t0) * 1e3);
        if (reloaded.entries() != n) out.fail(1, "store reload lost entries");
      }
      tracer.end(span);
    }
    std::filesystem::remove_all(store);

    auto status = s.daemon->status();
    layers.set("serve.codec.decode_result_us", decode_us);
    layers.set("serve.codec.encode_result_us", encode_us);
    layers.set("serve.fingerprint_us", fingerprint_us);
    layers.set("serve.cache.get_us", get_us);
    layers.set("serve.body_bytes", body_bytes / static_cast<double>(n));
    layers.set("serve.cache.put_us", put_us);
    layers.set("serve.cache.reload_ms", median(reload_ms));
    layers.set("serve.cache.hit_frac", served_cells > 0 ? hits / served_cells : 0);
    layers.set("serve.client.retries",
               static_cast<double>(client_metrics.snapshot().counter(
                   "serve.client.retries")));
    if (status.ok()) {
      layers.set("serve.jobs.rejected",
                 static_cast<double>(status.value().jobs_rejected));
    } else {
      out.fail(1, "status: " + status.error().describe());
    }
    double aff = 0.0, truth = 0.0;
    for (const runner::ExperimentResult* r : results) {
      aff += static_cast<double>(r->aff_delivered);
      truth += static_cast<double>(r->truth_delivered);
    }
    layers.set("aff.delivery_ratio", aff / truth);
    // Per cell on a hit: cache get, server-side decode and fingerprint
    // re-derivation, the trial's re-encoding into the stream, and the
    // client's decode.
    layers.attribution(
        sum(submit_ms) / static_cast<double>(submit_ms.size()),
        cells * (get_us + 2 * decode_us + fingerprint_us + encode_us) * 1e-3);
    if (const std::string e = s.daemon->stop(); !e.empty()) out.fail(1, e);
    finish_traced(tracer, layers, gate, o, out);
    return out;
  }

  const double start = now_s();
  while (t.pass_s.empty() || now_s() - start < o.seconds) {
    double pass_s = 0.0;
    for (int i = 0; i < kSubmitsPerPass; ++i) {
      const double dt = submit(nullptr);
      t.op_ms.push_back(dt * 1e3);
      pass_s += dt;
    }
    t.pass_s.push_back(pass_s);
    t.timed_s += pass_s;
    t.cells += kSubmitsPerPass * cells;
  }
  // No medium runs in the timed phase: a "delivery" here is one served
  // cell, so deliveries_per_s equals cells_per_s and allocs_per_delivery is
  // allocations per served cell.
  t.deliveries = t.cells;
  if (const std::string e = s.daemon->stop(); !e.empty()) out.fail(1, e);
  report_e2e(t, out);
  note_gate(gate, o, out);
  return out;
}

}  // namespace retri::perf

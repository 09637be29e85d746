// Shared pieces of the retri_perf benchmark: options, the metric report,
// host-time helpers, result digests and the benchmark's own span recorder.
//
// Everything here lives outside src/: the benchmark times the program's
// layers from the outside, through their public functions, and never adds
// tracing inside them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"
#include "runner/experiment.hpp"

namespace retri::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Expected-digest record (perf/expected.json); a run without it fails.
  std::string expected_path;
  /// Where the traced run writes its spans (Perfetto JSON).
  std::string trace_out;
  /// Scratch directory inside the checkout (serve_warm's socket and store).
  std::string work_dir;
  /// Source identity stamped into the host line (git commit or tree hash).
  std::string source_id;
  /// Replace the recorded digest with a wrong one (self-test only).
  bool inject_mismatch = false;
};

/// One named value with its unit, printed in insertion order.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Adds a note line printed (not part of the JSON metrics).
  void note(std::string line) { notes_.push_back(std::move(line)); }

  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const noexcept { return entries_; }
  const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

/// What one workload run produced: the metric report plus the op tally the
/// result line carries.
struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Why ops failed (first few), printed to stderr.
  std::vector<std::string> failures;

  void fail(std::uint64_t ops, std::string why);
};

// --- host time --------------------------------------------------------------

/// Seconds on the steady clock since process start.
double now_s();

/// Quantile q in [0, 1] of `values` by linear interpolation (values copied).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);

/// Peak resident set size of this process, MB (VmHWM).
double peak_rss_mb();

// --- digests ----------------------------------------------------------------

/// FNV-1a 64 fold: the digest of a sequence of strings, order-sensitive.
class Digest {
 public:
  void add(std::string_view text);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// The recorded digests: workload -> seed -> hex digest.
struct ExpectedDigests {
  std::map<std::string, std::map<std::uint64_t, std::string>> digests;

  /// Loads `path`; returns an error message, or empty on success.
  std::string load(const std::string& path);
  /// The recorded digest for (workload, seed), or empty when not recorded.
  std::string find(const std::string& workload, std::uint64_t seed) const;
};

/// Checks a pass digest against the record (when the seed is recorded) and
/// against the run's first pass (always). Returns an error, or empty.
class DigestGate {
 public:
  DigestGate(std::string expected, bool recorded)
      : expected_(std::move(expected)), recorded_(recorded) {}

  std::string check(const std::string& digest);
  bool recorded() const noexcept { return recorded_; }
  const std::string& first() const noexcept { return first_; }

 private:
  std::string expected_;
  bool recorded_ = false;
  std::string first_;
};

/// Degenerate-cell test: a cell with no ground-truth deliveries or no
/// medium deliveries measures nothing and counts as a failure.
std::string degenerate(const runner::ExperimentResult& result);

// --- the benchmark's own spans ----------------------------------------------

/// Host-time spans recorded from the benchmark's code around calls into
/// each layer; kept in memory, written once at the end.
class Tracer {
 public:
  obs::SpanId begin(std::string_view name, std::string_view category,
                    obs::SpanId parent = obs::SpanId::none());
  void end(obs::SpanId span);
  /// Writes the spans as Perfetto JSON; returns an error or empty.
  std::string write(const std::string& path) const;

 private:
  obs::SpanRecorder spans_;
};

// --- host fingerprint -------------------------------------------------------

/// One-line JSON: CPU model, nproc, compiler, build type, source identity.
std::string host_fingerprint(const std::string& source_id);

// --- workloads ----------------------------------------------------------------

Outcome run_selectors_parallel(const Options& options,
                               const ExpectedDigests& expected);
Outcome run_serve_warm(const Options& options, const ExpectedDigests& expected);

}  // namespace retri::perf

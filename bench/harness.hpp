// The retri_bench command line: its flag grammar, the overrides it applies
// to a named sweep, and the JSON artifact export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "runner/result_sink.hpp"
#include "runner/sweep.hpp"

namespace retri::bench {

/// Parses "--flag value" style options: --trials N, --seconds S,
/// --senders N, --seed X, --jobs N, --out FILE, --csv, --sweep NAME,
/// --repro NAME, --selector NAME, --list, --via SOCKET and --cache-info.
/// Unknown flags and malformed numeric values are fatal (typos must not
/// silently run the default experiment).
struct BenchArgs {
  unsigned trials = 10;
  double seconds = 30.0;
  std::size_t senders = 5;
  std::uint64_t seed = 1;
  unsigned jobs = 1;      // worker threads for trial execution
  std::string out;        // JSON artifact path; empty = no export
  bool csv = false;
  std::string sweep;      // named sweep to run
  std::string repro;      // reproduction entry to run (bench/repro.hpp)
  /// Pins the sweep's id-selection policy: a registry name
  /// from core::named_selectors(), or "help" to list them. Overrides both
  /// the sweep's base selector and its selector axis.
  std::string selector;
  bool list = false;      // list the sweeps and reproduction entries
  /// Fetch the sweep through a retri_serve daemon at this
  /// Unix-socket path instead of simulating locally. Results (and the
  /// default --out artifact) are bit-identical to a local run.
  std::string via;
  /// With --via, annotate the --out artifact with per-trial
  /// cache provenance (schema v4 "cache"/"served_by" members). Off by
  /// default so served artifacts stay byte-comparable to local ones.
  bool cache_info = false;
};

/// Non-exiting parser: returns false and fills `error` on unknown flags,
/// missing values, or numeric values that fail strict whole-token parsing
/// (rejected, never silently defaulted). Tests exercise this directly.
bool try_parse_args(int argc, char** argv, BenchArgs& args,
                    std::string& error);

/// try_parse_args, exiting with status 2 on error.
BenchArgs parse_args(int argc, char** argv);

/// Applies the per-run overrides (trials, seed, seconds, senders) to a
/// named sweep; --sweep and --repro share them.
void apply_overrides(runner::SweepSpec& spec, const BenchArgs& args);

/// Writes the sweep's JSON artifact to `path` via runner::ResultSink.
/// Returns 0 on success, 2 when the path cannot be opened or the write
/// fails — the CLI's usage/IO-error status. An unwritable --out must fail
/// the whole run loudly: the artifact IS the product of a sweep, and a
/// zero exit with no file poisons scripted pipelines. The failure reason
/// is printed to `err`.
int export_result(const std::string& path, const runner::SweepResult& result,
                  std::FILE* err,
                  const runner::ServeAnnotations* serve = nullptr);

}  // namespace retri::bench

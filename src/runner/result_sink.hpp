// Machine-diffable JSON export of sweep results.
//
// Bench output used to be printf tables nothing could diff or track over
// time; the sink turns a SweepResult into a schema-versioned artifact
// (BENCH_*.json) carrying the full provenance chain: sweep identity, every
// point's concrete config, every per-trial metric, and the aggregate
// statistics the paper plots. The serialization is a pure function of the
// SweepResult — no timestamps, hostnames, or worker counts — so two runs of
// the same sweep produce byte-identical files regardless of --jobs, and
// `cmp a.json b.json` is a valid determinism check.
#pragma once

#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace retri::runner {

/// Opt-in provenance for server-fetched sweeps: which daemon job produced
/// the artifact and, per (point, trial), whether the result came from the
/// result cache and under which content address. Deliberately not part of
/// the default artifact — the determinism contract is that a served sweep's
/// default export is byte-identical to a local run's, and provenance is
/// anything but a pure function of the SweepResult.
struct ServeAnnotations {
  std::string served_by;     // job id on the daemon
  std::string code_version;  // serve::kCodeVersion at fetch time
  struct TrialCache {
    bool hit = false;
    std::string key;  // cache content address of the cell
  };
  std::vector<std::vector<TrialCache>> trials;  // [point][trial]
};

class ResultSink {
 public:
  /// Bumped whenever the emitted structure changes shape.
  /// v2: config gains channel/loss_rate; trials gain frames_attempted,
  /// frames_lost_channel, observed_frame_loss.
  /// v3: trials gain a "metrics" object (the trial's obs::MetricsSnapshot)
  /// and aggregates gain "metrics_total" (snapshots folded in trial order).
  /// v4: optional serve provenance — top-level "served_by" and per-trial
  /// "cache" {hit, key, code_version} objects — emitted only when
  /// ServeAnnotations are passed (retri_bench --via --cache-info); default
  /// artifacts carry no serve members and stay bit-comparable to local runs.
  /// v5: config's flat policy string becomes a structured selector object,
  /// and configs with an active attacker gain an attacker object.
  /// v6: each point's config is the lossless canonical encoding shared
  /// with the serve codec (ExperimentConfig::fields): every field always
  /// present, durations as integer nanoseconds, so serve::decode_config
  /// reads it back to the exact config that ran.
  static constexpr int kSchemaVersion = 6;

  /// Serializes `result` (pretty-printed when `pretty`). `serve`, when
  /// non-null, adds the v4 provenance members.
  static std::string to_json(const SweepResult& result, bool pretty = true,
                             const ServeAnnotations* serve = nullptr);

  /// Writes to_json() to `path`. Returns false and fills `error` (if
  /// non-null) when the file cannot be written.
  static bool write_file(const std::string& path, const SweepResult& result,
                         std::string* error = nullptr,
                         const ServeAnnotations* serve = nullptr);
};

}  // namespace retri::runner

// Memoized chaos soaks: the ResultCache applied to fault trials.
//
// A chaos trial is (like a sweep trial) a pure function of its config, so
// a killed 500-seed soak should not restart from seed 0. ChaosCellRecord
// is the flat projection of a ChaosTrialResult containing exactly what
// retri_chaos prints and exports — plan description, the conservation
// counters, violations, and the canonical fingerprint — deliberately NOT
// the full nested stats structs, which would drag half the simulator's
// types into a serialization surface for no consumer.
//
// Hit verification differs from sweep trials: fault::fingerprint cannot be
// re-derived from the flat record (it covers the nested stats), so a hit
// is trusted when its CRC passes AND the fingerprint stored in the record
// body equals the fingerprint the cache entry was labeled with — a
// tampered body that still parses fails that cross-check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/chaos.hpp"
#include "serve/cache.hpp"
#include "util/result.hpp"

namespace retri::serve {

/// Flat, serializable projection of one chaos trial.
struct ChaosCellRecord {
  std::string plan;  // FaultPlan::describe()
  std::uint64_t packets_offered = 0;
  std::uint64_t aff_delivered = 0;
  std::uint64_t truth_delivered = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::vector<std::string> violations;
  std::string fingerprint;  // fault::fingerprint at production time

  /// Wire fields in wire order (util/json_fields.hpp): the cache body.
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("plan", s.plan);
    f("packets_offered", s.packets_offered);
    f("aff_delivered", s.aff_delivered);
    f("truth_delivered", s.truth_delivered);
    f("crashes", s.crashes);
    f("restarts", s.restarts);
    f("violations", s.violations);
    f("fingerprint", s.fingerprint);
  }

  bool clean() const noexcept { return violations.empty(); }
  bool operator==(const ChaosCellRecord&) const = default;
};

ChaosCellRecord project(const fault::ChaosTrialResult& result);

/// Strict: a record missing any field, or holding one of the wrong kind, is
/// rejected with the field named.
std::string encode_chaos_record(const ChaosCellRecord& record);
util::Result<ChaosCellRecord, std::string> decode_chaos_record(
    std::string_view text);

/// Canonical cell for one chaos trial (config with the trial seed baked
/// in), the cache-key input for chaos entries.
std::string canonical_chaos_cell(const fault::ChaosTrialConfig& config);

struct CachedChaosOptions {
  unsigned seeds = 50;
  unsigned jobs = 1;
  /// On-disk cache directory (the soak's memo table). Required — a
  /// memory-only cached soak would memoize nothing across runs.
  std::string cache_dir;
  std::size_t byte_budget = 256u << 20;
};

struct CachedChaosSoak {
  std::vector<ChaosCellRecord> records;  // seed-index order
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// run_chaos_soak with memoization: trial i (seed derive_trial_seed(
/// base.seed, i)) is served from `cache_dir` when a verified entry exists,
/// simulated otherwise, and every fresh result is committed before
/// returning — so a killed soak resumes where it died. Records are
/// bit-identical to an uncached soak's projections for any jobs value.
CachedChaosSoak run_cached_chaos_soak(const fault::ChaosTrialConfig& base,
                                      const CachedChaosOptions& options);

}  // namespace retri::serve

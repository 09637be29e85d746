#include "serve/chaos_cells.hpp"

#include <utility>

#include "runner/seeds.hpp"
#include "runner/thread_pool.hpp"
#include "util/json.hpp"
#include "util/json_fields.hpp"
#include "util/json_parse.hpp"

namespace retri::serve {

namespace {

constexpr std::string_view kChaosKind = "chaos-trial";

}  // namespace

ChaosCellRecord project(const fault::ChaosTrialResult& result) {
  ChaosCellRecord record;
  record.plan = result.plan.describe();
  record.packets_offered = result.packets_offered;
  record.aff_delivered = result.aff_delivered;
  record.truth_delivered = result.truth_delivered;
  record.crashes = result.crashes;
  record.restarts = result.restarts;
  record.violations = result.violations;
  record.fingerprint = fault::fingerprint(result);
  return record;
}

std::string encode_chaos_record(const ChaosCellRecord& record) {
  return util::to_json(record);
}

util::Result<ChaosCellRecord, std::string> decode_chaos_record(
    std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.ok()) return "chaos record: " + parsed.error().describe();
  ChaosCellRecord record;
  std::string err;
  if (!util::read_json(parsed.value(), record, err)) {
    return "chaos record: " + err;
  }
  return record;
}

std::string canonical_chaos_cell(const fault::ChaosTrialConfig& config) {
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("kind", kChaosKind);
  json.member("senders", static_cast<std::uint64_t>(config.senders));
  json.member("id_bits", static_cast<std::uint64_t>(config.id_bits));
  json.member("packet_bytes",
              static_cast<std::uint64_t>(config.packet_bytes));
  json.member("max_reassembly_entries",
              static_cast<std::uint64_t>(config.max_reassembly_entries));
  json.member("reassembly_timeout_ns", config.reassembly_timeout.ns());
  json.member("send_ns", config.send_duration.ns());
  json.member("drain_ns", config.drain_extra.ns());
  json.member("seed", config.seed);
  json.end_object();
  return std::move(json).take();
}

CachedChaosSoak run_cached_chaos_soak(const fault::ChaosTrialConfig& base,
                                      const CachedChaosOptions& options) {
  const unsigned seeds = options.seeds == 0 ? 1 : options.seeds;
  ResultCache cache(
      CacheOptions{options.cache_dir, options.byte_budget, nullptr});

  CachedChaosSoak soak;
  soak.records.resize(seeds);

  // Phase 1 (single-threaded): probe the cache for every seed. The cache
  // is not thread-safe, so all cache traffic stays on this thread.
  std::vector<unsigned> missing;
  std::vector<std::string> keys(seeds);
  std::vector<fault::ChaosTrialConfig> configs(seeds, base);
  for (unsigned i = 0; i < seeds; ++i) {
    configs[i].seed = runner::derive_trial_seed(base.seed, i);
    keys[i] =
        ResultCache::make_key(kCodeVersion, canonical_chaos_cell(configs[i]));
    bool served = false;
    if (auto entry = cache.get(keys[i])) {
      if (entry->kind == kChaosKind) {
        auto decoded = decode_chaos_record(entry->body);
        // The flat record cannot re-derive fault::fingerprint, so the
        // semantic check is the cross-equality of the body's stored
        // fingerprint with the entry's label.
        if (decoded.ok() &&
            decoded.value().fingerprint == entry->fingerprint) {
          soak.records[i] = std::move(decoded).value();
          ++soak.hits;
          served = true;
        }
      }
      if (!served) cache.invalidate(keys[i]);
    }
    if (!served) missing.push_back(i);
  }

  // Phase 2: simulate the misses (trial-local state, freely parallel),
  // results landing in index slots exactly like run_chaos_soak.
  std::vector<fault::ChaosTrialResult> fresh(missing.size());
  auto run_one = [&](std::size_t slot) {
    fresh[slot] = fault::run_chaos_trial(configs[missing[slot]]);
  };
  if (options.jobs <= 1 || missing.size() <= 1) {
    for (std::size_t slot = 0; slot < missing.size(); ++slot) run_one(slot);
  } else {
    runner::ThreadPool pool(options.jobs);
    for (std::size_t slot = 0; slot < missing.size(); ++slot) {
      pool.submit([&run_one, slot] { run_one(slot); });
    }
    pool.wait_idle();
  }

  // Phase 3 (single-threaded again): commit and project.
  for (std::size_t slot = 0; slot < missing.size(); ++slot) {
    const unsigned i = missing[slot];
    ChaosCellRecord record = project(fresh[slot]);
    cache.put(keys[i], std::string(kChaosKind), record.fingerprint,
              encode_chaos_record(record));
    soak.records[i] = std::move(record);
    ++soak.misses;
  }
  return soak;
}

}  // namespace retri::serve

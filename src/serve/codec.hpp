// Exact JSON codecs for the serve subsystem's persisted/wired values.
//
// Everything the daemon stores or streams — cache bodies, job checkpoints,
// sweep submissions — round-trips through these functions, so they are held
// to a stricter standard than ResultSink's display-oriented trial records:
//   - encode/decode is lossless for every field, including 64-bit seeds and
//     nanosecond durations (serialized as integer ns, never floating
//     seconds) and doubles (shortest-form to_chars, re-parsed exactly by
//     util::parse_json's raw-token from_chars);
//   - canonical_cell() is the cache-key input: a compact, fixed-field-order
//     rendering of one trial's full ExperimentConfig with the derived trial
//     seed baked in. Two cells are byte-equal iff run_experiment would see
//     identical inputs;
//   - decoders are strict (Result-returning): a missing or wrong-kind field
//     is an error, never a silent default, because a cache body that decodes
//     "close enough" is exactly the stale-result bug the cache must not have.
// No field is named here: each function walks its struct's own field list
// (ExperimentConfig::fields and friends, see util/json_fields.hpp), the
// same list runner::ResultSink writes each point's config with. The bytes
// are pinned by a test against kCodeVersion.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "runner/sweep.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/result.hpp"

namespace retri::serve {

// --- ExperimentConfig ------------------------------------------------------

/// Compact one-line rendering of `config`; with the trial seed already
/// substituted this is the canonical cell fed to ResultCache::make_key.
std::string canonical_cell(const runner::ExperimentConfig& config);

util::Result<runner::ExperimentConfig, std::string> decode_config(
    const util::JsonValue& doc);

// --- ExperimentResult ------------------------------------------------------

void write_result(util::JsonWriter& json, const runner::ExperimentResult& result);
std::string encode_result(const runner::ExperimentResult& result);

util::Result<runner::ExperimentResult, std::string> decode_result(
    const util::JsonValue& doc);
/// Parse + decode in one step (cache bodies arrive as text).
util::Result<runner::ExperimentResult, std::string> decode_result_text(
    std::string_view text);

// --- SweepSpec -------------------------------------------------------------

void write_sweep_spec(util::JsonWriter& json, const runner::SweepSpec& spec);
std::string encode_sweep_spec(const runner::SweepSpec& spec);

util::Result<runner::SweepSpec, std::string> decode_sweep_spec(
    const util::JsonValue& doc);

// --- Job checkpoints -------------------------------------------------------

/// Progress record for one submitted sweep, durable across daemon restarts.
/// `done` holds flattened cell indices (point * trials + trial) whose
/// results are committed to the cache; a resumed job re-runs only the rest.
struct JobCheckpoint {
  std::string spec_hash;  // stable hash of the encoded spec (file name stem)
  runner::SweepSpec spec;
  std::vector<std::uint64_t> done;

  /// Wire fields in wire order (util/json_fields.hpp), after the schema
  /// header.
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("spec_hash", s.spec_hash);
    f("spec", s.spec);
    f("done", s.done);
  }
};

std::string encode_checkpoint(const JobCheckpoint& checkpoint);
util::Result<JobCheckpoint, std::string> decode_checkpoint(
    std::string_view text);

/// Stable content hash of an encoded sweep spec — names the checkpoint file
/// and prefixes job ids, so resubmitting the same spec resumes its record.
std::string spec_hash(const runner::SweepSpec& spec);

}  // namespace retri::serve

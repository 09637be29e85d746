#include "serve/codec.hpp"

#include "serve/cache.hpp"
#include "util/json_fields.hpp"

namespace retri::serve {

namespace {

// Decodes `doc` into a fresh T through its field list; errors carry the
// document's name ("config: field \"topology\": unknown value ...").
template <class T>
util::Result<T, std::string> decode(const util::JsonValue& doc,
                                    std::string_view what) {
  T out;
  std::string err;
  if (!util::read_json(doc, out, err)) {
    return std::string(what) + ": " + err;
  }
  return out;
}

}  // namespace

// --- ExperimentConfig ------------------------------------------------------

std::string canonical_cell(const runner::ExperimentConfig& config) {
  return util::to_json(config);
}

util::Result<runner::ExperimentConfig, std::string> decode_config(
    const util::JsonValue& doc) {
  return decode<runner::ExperimentConfig>(doc, "config");
}

// --- ExperimentResult ------------------------------------------------------

void write_result(util::JsonWriter& json,
                  const runner::ExperimentResult& result) {
  util::write_json(json, result);
}

std::string encode_result(const runner::ExperimentResult& result) {
  return util::to_json(result);
}

util::Result<runner::ExperimentResult, std::string> decode_result(
    const util::JsonValue& doc) {
  return decode<runner::ExperimentResult>(doc, "result");
}

util::Result<runner::ExperimentResult, std::string> decode_result_text(
    std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.ok()) return "result: " + parsed.error().describe();
  return decode_result(parsed.value());
}

// --- SweepSpec -------------------------------------------------------------

void write_sweep_spec(util::JsonWriter& json, const runner::SweepSpec& spec) {
  util::write_json(json, spec);
}

std::string encode_sweep_spec(const runner::SweepSpec& spec) {
  return util::to_json(spec);
}

util::Result<runner::SweepSpec, std::string> decode_sweep_spec(
    const util::JsonValue& doc) {
  return decode<runner::SweepSpec>(doc, "spec");
}

// --- Job checkpoints -------------------------------------------------------

std::string spec_hash(const runner::SweepSpec& spec) {
  // Same address space as cache keys (content hash of canonical JSON), so a
  // checkpoint names exactly one grid and resubmission finds it by content.
  return ResultCache::make_key(kCodeVersion, encode_sweep_spec(spec));
}

std::string encode_checkpoint(const JobCheckpoint& checkpoint) {
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("schema", "retri.serve-checkpoint");
  json.member("schema_version", 1);
  util::write_fields(json, checkpoint);
  json.end_object();
  return std::move(json).take();
}

util::Result<JobCheckpoint, std::string> decode_checkpoint(
    std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.ok()) return "checkpoint: " + parsed.error().describe();
  const util::JsonValue& doc = parsed.value();
  if (doc.str("schema") != "retri.serve-checkpoint" ||
      doc.i64("schema_version") != 1) {
    return std::string("checkpoint: unrecognized schema");
  }
  return decode<JobCheckpoint>(doc, "checkpoint");
}

}  // namespace retri::serve

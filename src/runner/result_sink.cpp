#include "runner/result_sink.hpp"

#include "obs/export.hpp"
#include "runner/seeds.hpp"
#include "util/json.hpp"
#include "util/json_fields.hpp"

namespace retri::runner {
namespace {

using util::JsonWriter;

void write_trial(JsonWriter& json, const ExperimentConfig& config,
                 const ExperimentResult& trial,
                 const ServeAnnotations::TrialCache* cache,
                 const std::string* code_version) {
  json.begin_object();
  json.member("seed", config.seed);
  json.member("packets_offered", trial.packets_offered);
  json.member("aff_delivered", trial.aff_delivered);
  json.member("truth_delivered", trial.truth_delivered);
  json.member("checksum_failures", trial.checksum_failures);
  json.member("conflicting_writes", trial.conflicting_writes);
  json.member("notifications_sent", trial.notifications_sent);
  json.member("receiver_density_estimate", trial.receiver_density_estimate);
  json.member("tx_energy_nj", trial.tx_energy_nj);
  json.member("tx_bits", trial.tx_bits);
  json.member("delivery_ratio", trial.delivery_ratio());
  json.member("collision_loss", trial.collision_loss_rate());
  json.member("frames_attempted", trial.frames_attempted);
  json.member("frames_lost_channel", trial.frames_lost_channel);
  json.member("observed_frame_loss", trial.observed_frame_loss());
  json.key("metrics");
  obs::write_metrics_object(json, trial.metrics);
  if (cache != nullptr) {
    json.key("cache").begin_object();
    json.member("hit", cache->hit);
    json.member("key", cache->key);
    json.member("code_version",
                code_version != nullptr ? *code_version : std::string());
    json.end_object();
  }
  json.end_object();
}

void write_trial_set(JsonWriter& json, const stats::TrialSet& set) {
  const stats::Interval ci = set.ci95();
  json.begin_object();
  json.member("mean", set.mean());
  json.member("stddev", set.stddev());
  json.member("min", set.min());
  json.member("max", set.max());
  json.member("ci95_lo", ci.lo);
  json.member("ci95_hi", ci.hi);
  json.end_object();
}

}  // namespace

std::string ResultSink::to_json(const SweepResult& result, bool pretty,
                                const ServeAnnotations* serve) {
  JsonWriter json(pretty);
  json.begin_object();
  json.member("schema", "retri.sweep-result");
  json.member("schema_version", kSchemaVersion);
  if (serve != nullptr) json.member("served_by", serve->served_by);

  json.key("sweep").begin_object();
  json.member("name", result.spec.name);
  json.member("description", result.spec.description);
  json.member("trials", result.spec.trials);
  json.member("base_seed", result.spec.base.seed);
  json.member("points", result.points.size());
  json.end_object();

  json.key("points").begin_array();
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const SweepPointResult& point = result.points[p];
    json.begin_object();
    json.member("label", point.label);
    json.key("config");
    util::write_json(json, point.config);

    json.key("trials").begin_array();
    for (std::size_t t = 0; t < point.trials.size(); ++t) {
      ExperimentConfig trial_config = point.config;
      trial_config.seed = derive_trial_seed(point.config.seed, t);
      const ServeAnnotations::TrialCache* cache = nullptr;
      if (serve != nullptr && p < serve->trials.size() &&
          t < serve->trials[p].size()) {
        cache = &serve->trials[p][t];
      }
      write_trial(json, trial_config, point.trials[t], cache,
                  serve != nullptr ? &serve->code_version : nullptr);
    }
    json.end_array();

    json.key("aggregates").begin_object();
    json.key("delivery_ratio");
    write_trial_set(json, point.summary.delivery_ratio);
    json.key("collision_loss");
    write_trial_set(json, point.summary.collision_loss);
    json.key("metrics_total");
    obs::write_metrics_object(json, point.summary.metrics_total);
    json.end_object();

    json.end_object();
  }
  json.end_array();

  json.end_object();
  return json.str();
}

bool ResultSink::write_file(const std::string& path, const SweepResult& result,
                            std::string* error, const ServeAnnotations* serve) {
  return obs::write_text_file(path, to_json(result, /*pretty=*/true, serve),
                              error);
}

}  // namespace retri::runner

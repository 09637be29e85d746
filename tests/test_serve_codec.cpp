// serve codec round-trips: every value the daemon persists or streams must
// survive encode → parse → decode → re-encode byte-identically, including
// 64-bit seeds and nanosecond durations. Byte-comparing the re-encoding is
// the strongest equality available and is exactly the property the cache's
// bit-identical-serving guarantee rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/experiment.hpp"
#include "runner/result_sink.hpp"
#include "runner/seeds.hpp"
#include "runner/sweep.hpp"
#include "serve/cache.hpp"
#include "serve/chaos_cells.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/time.hpp"
#include "util/json_parse.hpp"

namespace serve = retri::serve;
namespace runner = retri::runner;
namespace util = retri::util;

namespace {

runner::ExperimentConfig gnarly_config() {
  runner::ExperimentConfig config;
  config.senders = 7;
  config.topology = runner::TopologyKind::kHiddenTerminal;
  config.id_bits = 12;
  config.selector =
      retri::core::listening_selector(/*heed_notifications=*/true);
  config.selector.listening.fixed_window = 9;
  config.selector.counter_salt = 0xfeedfacecafebeefull;  // 64-bit round-trip
  config.selector.permutation_period = 12345678901234ull;
  config.attacker.mode = retri::fault::AttackerMode::kEchoCollide;
  config.attacker.flood_interval = retri::sim::Duration::nanoseconds(7777777);
  config.attacker.echo_delay = retri::sim::Duration::nanoseconds(333);
  config.attacker.echo_probability = 0.625;
  config.attacker.junk_bytes = 11;
  config.packet_bytes = 240;
  config.per_sender_packet_bytes = {24, 240, 80};
  config.send_duration = retri::sim::Duration::nanoseconds(1234567891011LL);
  config.drain_extra = retri::sim::Duration::nanoseconds(987654321LL);
  config.collision_notifications = true;
  config.tx_jitter = retri::sim::Duration::nanoseconds(2000001);
  config.sender_listen_duty = 0.37;
  config.duty_period = retri::sim::Duration::nanoseconds(100000007);
  config.density_model = retri::core::DensityModelKind::kPeakWindow;
  config.loss_rate = 0.15;
  config.channel = "burst";
  config.seed = 11400714819323198485ull;  // does not survive a double
  return config;
}

runner::ExperimentResult gnarly_result() {
  runner::ExperimentResult result;
  result.packets_offered = 12345;
  result.aff_delivered = 12001;
  result.truth_delivered = 12100;
  result.checksum_failures = 3;
  result.conflicting_writes = 1;
  result.notifications_sent = 42;
  result.receiver_density_estimate = 6.125;
  result.tx_energy_nj = 98765.4321;
  result.tx_bits = 1u << 22;
  result.frames_attempted = 54321;
  result.frames_lost_channel = 8123;
  retri::obs::MetricsRegistry registry;
  registry.counter("medium.frames").inc(54321);
  registry.gauge("queue.depth").set(7);
  auto histogram = registry.histogram("reasm.size", {1.0, 4.0, 16.0});
  histogram.record(2.0);
  histogram.record(100.0);
  result.metrics = registry.snapshot();
  result.aff_by_size = {{24, 4000}, {240, 8001}};
  result.truth_by_size = {{24, 4040}, {240, 8060}};
  return result;
}

runner::SweepSpec gnarly_spec() {
  runner::SweepSpec spec;
  spec.name = "codec-roundtrip";
  spec.description = "every axis populated";
  spec.trials = 3;
  spec.base = gnarly_config();
  spec.id_bits = {2, 4, 8};
  spec.selectors = {retri::core::uniform_selector(),
                    retri::core::hybrid_selector(31)};
  spec.attackers = {retri::fault::AttackerMode::kOff,
                    retri::fault::AttackerMode::kBlindFlood};
  spec.senders = {2, 5};
  spec.duties = {0.25, 1.0};
  spec.density_models = {retri::core::DensityModelKind::kEwma,
                         retri::core::DensityModelKind::kInstantaneous};
  spec.channels = {"independent", "chaos"};
  spec.loss_rates = {0.0, 0.3};
  return spec;
}

/// Where the key `"name":` and its value start in `message`, and where the
/// value ends. Members before "result" hold no commas, braces or brackets
/// inside strings, and "result" comes last, so the first `"name":` is the
/// top-level key.
struct MemberSpan {
  std::size_t key = 0;
  std::size_t value = 0;
  std::size_t end = 0;
};

MemberSpan member_span(const std::string& message, std::string_view name) {
  MemberSpan span;
  span.key = message.find("\"" + std::string(name) + "\":");
  EXPECT_NE(span.key, std::string::npos) << name;
  span.value = span.key + name.size() + 3;
  int depth = 0;
  for (span.end = span.value; span.end < message.size(); ++span.end) {
    const char c = message[span.end];
    if (c == '{' || c == '[') ++depth;
    if ((c == '}' || c == ']') && depth-- == 0) break;
    if (c == ',' && depth == 0) break;
  }
  return span;
}

/// `message` minus its member `name` and the comma before it (never the
/// first member, which is "type").
std::string without_member(std::string message, std::string_view name) {
  const MemberSpan span = member_span(message, name);
  EXPECT_EQ(message[span.key - 1], ',') << name;
  message.erase(span.key - 1, span.end - span.key + 1);
  return message;
}

/// `message` with the value of member `name` replaced by `token`.
std::string with_member(std::string message, std::string_view name,
                        std::string_view token) {
  const MemberSpan span = member_span(message, name);
  message.replace(span.value, span.end - span.value, token);
  return message;
}

}  // namespace

TEST(ServeCodec, ConfigRoundTripsByteIdentically) {
  const runner::ExperimentConfig config = gnarly_config();
  const std::string cell = serve::canonical_cell(config);

  const auto doc = util::parse_json(cell);
  ASSERT_TRUE(doc.ok());
  const auto decoded = serve::decode_config(doc.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(serve::canonical_cell(decoded.value()), cell);
  EXPECT_EQ(decoded.value().seed, config.seed);
  EXPECT_EQ(decoded.value().send_duration.ns(), config.send_duration.ns());
  EXPECT_EQ(decoded.value().per_sender_packet_bytes,
            config.per_sender_packet_bytes);
}

TEST(ServeCodec, CanonicalCellChangesWithTheSeed) {
  runner::ExperimentConfig config = gnarly_config();
  const std::string cell = serve::canonical_cell(config);
  config.seed += 1;
  EXPECT_NE(serve::canonical_cell(config), cell);
}

TEST(ServeCodec, ConfigDecodeIsStrict) {
  // Removing any field must fail with an error naming the field — a cache
  // body that decodes "close enough" is a stale-result bug.
  // The canonical cell minus its "selector" object and the comma after it.
  std::string without = serve::canonical_cell(gnarly_config());
  const std::size_t from = without.find("\"selector\":{");
  ASSERT_NE(from, std::string::npos);
  std::size_t to = without.find('{', from);
  for (int depth = 0;; ++to) {
    if (without[to] == '{') ++depth;
    if (without[to] == '}' && --depth == 0) break;
  }
  ASSERT_EQ(without[to + 1], ',');
  without.erase(from, to + 2 - from);
  const auto doc = util::parse_json(without);
  ASSERT_TRUE(doc.ok()) << without;
  ASSERT_EQ(doc.value().find("selector"), nullptr);
  const auto missing = serve::decode_config(doc.value());
  ASSERT_FALSE(missing.ok());
  // A missing nested object is named like any other field.
  EXPECT_NE(missing.error().find("selector"), std::string::npos);

  // With the nested objects present, a missing scalar is still named.
  std::string body = serve::canonical_cell(gnarly_config());
  const std::size_t at = body.find("\"id_bits\"");
  ASSERT_NE(at, std::string::npos);
  body.erase(at, body.find(',', at) - at + 1);
  const auto redoc = util::parse_json(body);
  ASSERT_TRUE(redoc.ok());
  const auto scalar = serve::decode_config(redoc.value());
  ASSERT_FALSE(scalar.ok());
  EXPECT_NE(scalar.error().find("id_bits"), std::string::npos);
}

TEST(ServeCodec, ConfigDecodeRejectsNonIntegerAndOutOfRangeNumbers) {
  // An integer field must hold a whole token that fits its member: a
  // fraction, a negative count or a 33-bit id width is an error, not a
  // silent 0 or a truncation.
  const std::string cell = serve::canonical_cell(gnarly_config());
  const auto with_id_bits = [&cell](std::string_view token) {
    std::string body = cell;
    const std::string key = "\"id_bits\":";
    const std::size_t at = body.find(key) + key.size();
    body.replace(at, body.find(',', at) - at, token);
    const auto doc = util::parse_json(body);
    EXPECT_TRUE(doc.ok()) << body;
    return serve::decode_config(doc.value());
  };
  EXPECT_TRUE(with_id_bits("12").ok());
  for (const std::string_view bad : {"1.5", "-3", "4294967296", "1e1"}) {
    const auto decoded = with_id_bits(bad);
    ASSERT_FALSE(decoded.ok()) << bad;
    EXPECT_NE(decoded.error().find("id_bits"), std::string::npos) << bad;
  }
}

TEST(ServeCodec, ResultRoundTripsByteIdentically) {
  const runner::ExperimentResult result = gnarly_result();
  const std::string body = serve::encode_result(result);

  const auto decoded = serve::decode_result_text(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(serve::encode_result(decoded.value()), body);
  // The fingerprint — what the server re-derives on every hit — must be
  // preserved exactly through the codec.
  EXPECT_EQ(runner::fingerprint(decoded.value()), runner::fingerprint(result));
  EXPECT_EQ(decoded.value().metrics, result.metrics);
  EXPECT_EQ(decoded.value().aff_by_size, result.aff_by_size);
}

TEST(ServeCodec, ResultDecodeRejectsTruncatedBodies) {
  const std::string body = serve::encode_result(gnarly_result());
  EXPECT_FALSE(serve::decode_result_text(body.substr(0, body.size() / 2)).ok());
  EXPECT_FALSE(serve::decode_result_text("{}").ok());
}

TEST(ServeCodec, SweepSpecRoundTripsByteIdentically) {
  const runner::SweepSpec spec = gnarly_spec();
  const std::string encoded = serve::encode_sweep_spec(spec);

  const auto doc = util::parse_json(encoded);
  ASSERT_TRUE(doc.ok());
  const auto decoded = serve::decode_sweep_spec(doc.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(serve::encode_sweep_spec(decoded.value()), encoded);
  EXPECT_EQ(decoded.value().point_count(), spec.point_count());
  EXPECT_EQ(decoded.value().base.seed, spec.base.seed);
}

TEST(ServeCodec, CheckpointRoundTripsAndHashesStably) {
  serve::JobCheckpoint checkpoint;
  checkpoint.spec = gnarly_spec();
  checkpoint.spec_hash = serve::spec_hash(checkpoint.spec);
  checkpoint.done = {0, 3, 17, 40};

  const std::string encoded = serve::encode_checkpoint(checkpoint);
  const auto decoded = serve::decode_checkpoint(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().spec_hash, checkpoint.spec_hash);
  EXPECT_EQ(decoded.value().done, checkpoint.done);
  // Re-encoding the decode must reproduce the bytes — the full structural
  // round-trip, spec included.
  EXPECT_EQ(serve::encode_checkpoint(decoded.value()), encoded);

  // The hash is a pure function of the spec's content.
  EXPECT_EQ(serve::spec_hash(decoded.value().spec), checkpoint.spec_hash);
  runner::SweepSpec other = gnarly_spec();
  other.trials += 1;
  EXPECT_NE(serve::spec_hash(other), checkpoint.spec_hash);

  EXPECT_FALSE(serve::decode_checkpoint("not json").ok());
  EXPECT_FALSE(serve::decode_checkpoint(R"({"schema":"wrong"})").ok());
}

namespace {

/// FNV-1a-64 folded over a sequence of documents, each terminated by '\n'.
class BytesDigest {
 public:
  void add(std::string_view document) {
    for (const char c : document) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

TEST(ServeCodec, CanonicalBytesArePinnedToTheCodeVersion) {
  // Cache keys hash kCodeVersion with canonical_cell, and durable stores
  // and job checkpoints are trusted across restarts only while the code
  // version matches. These constants pin the codec's exact bytes: ANY
  // change to them must bump serve::kCodeVersion in the same change (and
  // then update both together).
  EXPECT_EQ(serve::kCodeVersion, std::string_view("retri-sim-v2"));

  // Every trial cell of every named sweep, seeded as Server::submit does.
  BytesDigest cells;
  BytesDigest specs;
  BytesDigest checkpoints;
  for (const std::string_view name : runner::named_sweeps()) {
    const auto spec = runner::make_named_sweep(name);
    ASSERT_TRUE(spec.ok()) << spec.error();
    specs.add(serve::encode_sweep_spec(spec.value()));
    serve::JobCheckpoint checkpoint;
    checkpoint.spec = spec.value();
    checkpoint.spec_hash = serve::spec_hash(checkpoint.spec);
    checkpoint.done = {0, 2, 3};
    checkpoints.add(serve::encode_checkpoint(checkpoint));
    const unsigned trials = std::max(1u, spec.value().trials);
    for (const runner::SweepPoint& point : spec.value().expand()) {
      for (unsigned t = 0; t < trials; ++t) {
        runner::ExperimentConfig config = point.config;
        config.seed = runner::derive_trial_seed(point.config.seed, t);
        cells.add(serve::canonical_cell(config));
      }
    }
  }
  EXPECT_EQ(cells.value(), 0xf2135ec3159522beULL);
  EXPECT_EQ(specs.value(), 0xb71830ac96a95ebcULL);
  EXPECT_EQ(checkpoints.value(), 0x731104741c8e9659ULL);

  // One simulated result. Its two floating-point fields are replaced by
  // fixed values: like runner::fingerprint, the pin must not depend on the
  // last ulp of a float the compiler may contract differently.
  runner::ExperimentConfig config;
  config.senders = 3;
  config.send_duration = retri::sim::Duration::seconds(2);
  runner::ExperimentResult result = runner::run_experiment(config);
  result.receiver_density_estimate = 2.75;
  result.tx_energy_nj = 1234.5625;
  BytesDigest body;
  body.add(serve::encode_result(result));
  EXPECT_EQ(body.value(), 0xd653070806e6d6acULL);
}

TEST(ChaosRecord, BytesArePinnedAndEveryFieldIsRequired) {
  serve::ChaosCellRecord record;
  record.plan = "loss=0.15 burst";
  record.packets_offered = 120;
  record.aff_delivered = 97;
  record.truth_delivered = 101;
  record.crashes = 2;
  record.restarts = 1;
  record.violations = {"bounded_state: 3 > 2"};
  record.fingerprint = "00ff00ff00ff00ff";
  const std::string bytes = serve::encode_chaos_record(record);
  EXPECT_EQ(bytes,
            R"({"plan":"loss=0.15 burst","packets_offered":120,)"
            R"("aff_delivered":97,"truth_delivered":101,"crashes":2,)"
            R"("restarts":1,"violations":["bounded_state: 3 > 2"],)"
            R"("fingerprint":"00ff00ff00ff00ff"})");
  const auto decoded = serve::decode_chaos_record(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), record);

  for (const std::string_view field :
       {"plan", "packets_offered", "aff_delivered", "truth_delivered",
        "crashes", "restarts", "violations", "fingerprint"}) {
    std::string missing = bytes;
    const MemberSpan span = member_span(missing, field);
    // Drop the member with the comma after it ("plan") or before it.
    if (field == "plan") missing.erase(span.key, span.end - span.key + 1);
    else missing.erase(span.key - 1, span.end - span.key + 1);
    const auto rejected = serve::decode_chaos_record(missing);
    ASSERT_FALSE(rejected.ok()) << field;
    std::string quoted = "\"";
    quoted.append(field).append("\"");
    EXPECT_NE(rejected.error().find(quoted), std::string::npos)
        << field << ": " << rejected.error();
  }
}

TEST(ResultSinkConfig, PointConfigRecordsAreLossless) {
  // A sweep artifact's per-point config record is the canonical encoding:
  // the shared reader gives back exactly the config that ran, including
  // the listening parameters of a hybrid selector and an active attacker.
  runner::SweepSpec spec;
  spec.name = "lossless-configs";
  spec.trials = 1;
  spec.base.senders = 2;
  spec.base.send_duration = retri::sim::Duration::milliseconds(300);
  spec.base.drain_extra = retri::sim::Duration::milliseconds(200);
  spec.base.attacker.echo_delay = retri::sim::Duration::nanoseconds(333);
  retri::core::SelectorSpec hybrid = retri::core::hybrid_selector(40);
  hybrid.listening.heed_notifications = true;
  hybrid.listening.fixed_window = 5;
  spec.selectors = {retri::core::uniform_selector(), hybrid};
  spec.attackers = {retri::fault::AttackerMode::kOff,
                    retri::fault::AttackerMode::kEchoCollide};
  const runner::SweepResult result = runner::SweepRunner().run(spec);

  const auto doc = util::parse_json(runner::ResultSink::to_json(result));
  ASSERT_TRUE(doc.ok());
  const util::JsonValue* points = doc.value().find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), result.points.size());
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const runner::SweepPointResult& point = result.points[p];
    const util::JsonValue* record = (*points)[p].find("config");
    ASSERT_NE(record, nullptr) << point.label;
    const auto decoded = serve::decode_config(*record);
    ASSERT_TRUE(decoded.ok()) << point.label << ": " << decoded.error();
    EXPECT_EQ(serve::canonical_cell(decoded.value()),
              serve::canonical_cell(point.config))
        << point.label;
  }
}

TEST(ServeProtocol, RequestAndResponseBodiesRoundTrip) {
  // submit
  const runner::SweepSpec spec = gnarly_spec();
  const auto submit = util::parse_json(serve::encode_submit(spec));
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(serve::message_type(submit.value()), "submit");
  const util::JsonValue* wired = submit.value().find("spec");
  ASSERT_NE(wired, nullptr);
  const auto respec = serve::decode_sweep_spec(*wired);
  ASSERT_TRUE(respec.ok()) << respec.error();
  EXPECT_EQ(serve::encode_sweep_spec(respec.value()),
            serve::encode_sweep_spec(spec));

  // status / shutdown request types
  const auto status_req = util::parse_json(serve::encode_status_request());
  ASSERT_TRUE(status_req.ok());
  EXPECT_EQ(serve::message_type(status_req.value()), "status");
  const auto shutdown = util::parse_json(serve::encode_shutdown());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(serve::message_type(shutdown.value()), "shutdown");

  // accepted
  serve::Submitted submitted{"abcdef123456-1", 4, 3, 12};
  const auto accepted = util::parse_json(serve::encode_accepted(submitted));
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(serve::message_type(accepted.value()), "accepted");
  const auto resub = serve::decode_accepted(accepted.value());
  ASSERT_TRUE(resub.ok()) << resub.error();
  EXPECT_EQ(resub.value().job_id, submitted.job_id);
  EXPECT_EQ(resub.value().points, submitted.points);
  EXPECT_EQ(resub.value().trials, submitted.trials);
  EXPECT_EQ(resub.value().cells, submitted.cells);

  // rejected
  serve::Rejection rejection{"queue full: 9 cells in flight", 500};
  const auto rejected = util::parse_json(serve::encode_rejected(rejection));
  ASSERT_TRUE(rejected.ok());
  const auto rerej = serve::decode_rejected(rejected.value());
  ASSERT_TRUE(rerej.ok()) << rerej.error();
  EXPECT_EQ(rerej.value().reason, rejection.reason);
  EXPECT_EQ(rerej.value().retry_after_ms, rejection.retry_after_ms);

  // status response
  serve::ServerStatus status;
  status.jobs_active = 1;
  status.jobs_submitted = 5;
  status.jobs_completed = 4;
  status.jobs_rejected = 2;
  status.queue_depth = 3;
  status.events_pending = 7;
  status.cache_entries = 11;
  status.cache_bytes = 4096;
  const auto wire_status = util::parse_json(serve::encode_status(status));
  ASSERT_TRUE(wire_status.ok());
  const auto restat = serve::decode_status(wire_status.value());
  ASSERT_TRUE(restat.ok()) << restat.error();
  EXPECT_EQ(restat.value().jobs_active, status.jobs_active);
  EXPECT_EQ(restat.value().jobs_completed, status.jobs_completed);
  EXPECT_EQ(restat.value().queue_depth, status.queue_depth);
  EXPECT_EQ(restat.value().cache_bytes, status.cache_bytes);
}

TEST(ServeProtocol, TrialAndDoneEventsRoundTrip) {
  serve::ServeEvent trial;
  trial.kind = serve::ServeEvent::Kind::kTrial;
  trial.job_id = "abcdef123456-1";
  trial.cell = 7;
  trial.point = 2;
  trial.trial = 1;
  trial.label = "H=4 listening";
  trial.cache_hit = true;
  trial.key = "0123456789abcdef";
  trial.result = gnarly_result();
  const auto trial_doc = util::parse_json(serve::encode_event(trial));
  ASSERT_TRUE(trial_doc.ok());
  EXPECT_EQ(serve::message_type(trial_doc.value()), "trial");
  const auto retrial = serve::decode_event(trial_doc.value());
  ASSERT_TRUE(retrial.ok()) << retrial.error();
  EXPECT_EQ(retrial.value().kind, serve::ServeEvent::Kind::kTrial);
  EXPECT_EQ(retrial.value().job_id, trial.job_id);
  EXPECT_EQ(retrial.value().cell, trial.cell);
  EXPECT_EQ(retrial.value().point, trial.point);
  EXPECT_EQ(retrial.value().trial, trial.trial);
  EXPECT_EQ(retrial.value().label, trial.label);
  EXPECT_TRUE(retrial.value().cache_hit);
  EXPECT_EQ(retrial.value().key, trial.key);
  EXPECT_EQ(serve::encode_result(retrial.value().result),
            serve::encode_result(trial.result));

  serve::ServeEvent done;
  done.kind = serve::ServeEvent::Kind::kJobDone;
  done.job_id = "abcdef123456-1";
  done.cells = 12;
  done.hits = 9;
  done.misses = 3;
  done.error = "";
  const auto done_doc = util::parse_json(serve::encode_event(done));
  ASSERT_TRUE(done_doc.ok());
  EXPECT_EQ(serve::message_type(done_doc.value()), "done");
  const auto redone = serve::decode_event(done_doc.value());
  ASSERT_TRUE(redone.ok()) << redone.error();
  EXPECT_EQ(redone.value().kind, serve::ServeEvent::Kind::kJobDone);
  EXPECT_EQ(redone.value().cells, done.cells);
  EXPECT_EQ(redone.value().hits, done.hits);
  EXPECT_EQ(redone.value().misses, done.misses);
  EXPECT_TRUE(redone.value().error.empty());
}

TEST(ServeProtocol, DecodersNameEveryMissingOrWrongKindField) {
  // A message missing a field, or carrying one of the wrong kind, is an
  // error naming that field — never a silent 0 that files a trial result
  // under point 0, trial 0.
  serve::ServeEvent trial;
  trial.kind = serve::ServeEvent::Kind::kTrial;
  trial.job_id = "abcdef123456-1";
  trial.cell = 7;
  trial.point = 2;
  trial.trial = 1;
  trial.label = "H=4 listening";
  trial.key = "0123456789abcdef";
  trial.result = gnarly_result();
  serve::ServeEvent done;
  done.kind = serve::ServeEvent::Kind::kJobDone;
  done.job_id = "abcdef123456-1";
  done.cells = 12;

  using Decoder = std::string (*)(const util::JsonValue&);
  const auto event_error = [](const util::JsonValue& doc) {
    auto decoded = serve::decode_event(doc);
    return decoded.ok() ? std::string() : decoded.error();
  };
  const auto accepted_error = [](const util::JsonValue& doc) {
    auto decoded = serve::decode_accepted(doc);
    return decoded.ok() ? std::string() : decoded.error();
  };
  const auto rejected_error = [](const util::JsonValue& doc) {
    auto decoded = serve::decode_rejected(doc);
    return decoded.ok() ? std::string() : decoded.error();
  };
  const auto status_error = [](const util::JsonValue& doc) {
    auto decoded = serve::decode_status(doc);
    return decoded.ok() ? std::string() : decoded.error();
  };
  struct Case {
    std::string message;
    Decoder decode;
    std::vector<std::string_view> fields;
  };
  const std::vector<Case> cases = {
      {serve::encode_event(trial), +event_error,
       {"job", "cell", "point", "trial", "label", "cache_hit", "key",
        "result"}},
      {serve::encode_event(done), +event_error,
       {"job", "cells", "hits", "misses", "error"}},
      {serve::encode_accepted(serve::Submitted{"job-1", 4, 3, 12}),
       +accepted_error, {"job", "points", "trials", "cells"}},
      {serve::encode_rejected(serve::Rejection{"queue full", 500}),
       +rejected_error, {"reason", "retry_after_ms"}},
      {serve::encode_status(serve::ServerStatus{}), +status_error,
       {"jobs_active", "jobs_submitted", "jobs_completed", "jobs_rejected",
        "queue_depth", "events_pending", "cache_entries", "cache_bytes",
        "cache_hits", "cache_misses", "cache_quarantined",
        "connections_active"}},
  };
  for (const Case& c : cases) {
    const auto whole = util::parse_json(c.message);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(c.decode(whole.value()), "") << c.message.substr(0, 80);
    for (const std::string_view field : c.fields) {
      std::string quoted = "\"";
      quoted.append(field).append("\"");
      const auto missing = util::parse_json(without_member(c.message, field));
      ASSERT_TRUE(missing.ok()) << field;
      const std::string missing_error = c.decode(missing.value());
      EXPECT_NE(missing_error.find(quoted), std::string::npos)
          << field << " missing: \"" << missing_error << "\"";

      // A bool where anything else is due, and a string where a bool is.
      const std::string_view token = field == "cache_hit" ? "\"yes\"" : "true";
      const auto wrong = util::parse_json(with_member(c.message, field, token));
      ASSERT_TRUE(wrong.ok()) << field;
      const std::string wrong_error = c.decode(wrong.value());
      EXPECT_NE(wrong_error.find(quoted), std::string::npos)
          << field << " wrong kind: \"" << wrong_error << "\"";
    }
  }

  // The frame that used to land in point 0, trial 0.
  const auto bare = util::parse_json(
      R"({"type":"trial","job":"j","result":)" +
      serve::encode_result(gnarly_result()) + "}");
  ASSERT_TRUE(bare.ok());
  const auto decoded = serve::decode_event(bare.value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error(), "trial: field \"cell\": missing");
}

TEST(ServeProtocol, MessageBytesArePinned) {
  // Messages are encoded through the same field lists they are decoded
  // with; these are the bytes every daemon and client already exchange.
  serve::ServerStatus status;
  status.jobs_active = 1;
  status.jobs_submitted = 2;
  status.jobs_completed = 3;
  status.jobs_rejected = 4;
  status.queue_depth = 5;
  status.events_pending = 6;
  status.cache_entries = 7;
  status.cache_bytes = 8;
  status.cache_hits = 9;
  status.cache_misses = 10;
  status.cache_quarantined = 11;
  status.connections_active = 12;
  serve::ServeEvent done;
  done.kind = serve::ServeEvent::Kind::kJobDone;
  done.job_id = "abcdef123456-1";
  done.cells = 12;
  done.hits = 9;
  done.misses = 3;
  done.error = "cell 4: boom";
  serve::ServeEvent trial;
  trial.kind = serve::ServeEvent::Kind::kTrial;
  trial.job_id = "abcdef123456-1";
  trial.cell = 7;
  trial.point = 2;
  trial.trial = 1;
  trial.label = "H=4 listening";
  trial.cache_hit = true;
  trial.key = "0123456789abcdef";
  trial.result = gnarly_result();

  EXPECT_EQ(serve::encode_accepted(serve::Submitted{"abcdef123456-1", 4, 3, 12}),
            R"({"type":"accepted","job":"abcdef123456-1","points":4,)"
            R"("trials":3,"cells":12})");
  EXPECT_EQ(serve::encode_rejected(
                serve::Rejection{"queue full: 9 cells in flight", 500}),
            R"({"type":"rejected","reason":"queue full: 9 cells in flight",)"
            R"("retry_after_ms":500})");
  EXPECT_EQ(serve::encode_status(status),
            R"({"type":"status","jobs_active":1,"jobs_submitted":2,)"
            R"("jobs_completed":3,"jobs_rejected":4,"queue_depth":5,)"
            R"("events_pending":6,"cache_entries":7,"cache_bytes":8,)"
            R"("cache_hits":9,"cache_misses":10,"cache_quarantined":11,)"
            R"("connections_active":12})");
  EXPECT_EQ(serve::encode_event(done),
            R"({"type":"done","job":"abcdef123456-1","cells":12,"hits":9,)"
            R"("misses":3,"error":"cell 4: boom"})");
  EXPECT_EQ(serve::encode_event(trial),
            R"({"type":"trial","job":"abcdef123456-1","cell":7,"point":2,)"
            R"("trial":1,"label":"H=4 listening","cache_hit":true,)"
            R"("key":"0123456789abcdef","result":)" +
                serve::encode_result(trial.result) + "}");
}

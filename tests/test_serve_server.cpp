// serve::Server behaviors, socket-free: hit/miss streaming, bit-identical
// served results, admission backpressure, semantic hit verification, and
// checkpoint/resume of a half-finished job.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/result_sink.hpp"
#include "runner/seeds.hpp"
#include "runner/sweep.hpp"
#include "runner/trial_runner.hpp"
#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/server.hpp"
#include "sim/time.hpp"
#include "util/json_parse.hpp"

namespace serve = retri::serve;
namespace runner = retri::runner;
namespace fs = std::filesystem;

namespace {

/// 2 points x 2 trials of a fast experiment: 4 cells, ~100ms total.
runner::SweepSpec tiny_spec() {
  runner::SweepSpec spec;
  spec.name = "serve-test";
  spec.description = "tiny grid for server tests";
  spec.trials = 2;
  spec.base.senders = 2;
  spec.base.seed = 7;
  spec.base.send_duration = retri::sim::Duration::milliseconds(300);
  spec.base.drain_extra = retri::sim::Duration::milliseconds(200);
  spec.id_bits = {2, 3};
  return spec;
}

/// Reassembles one job's event stream the way the wire client does: slot
/// trials by (point, trial), then summarize in trial-index order.
runner::SweepResult collect_job(serve::Server& server,
                                const runner::SweepSpec& spec,
                                const serve::Submitted& submitted,
                                serve::ServeEvent* done_out = nullptr) {
  const auto points = spec.expand();
  const unsigned trials = spec.trials == 0 ? 1 : spec.trials;
  runner::SweepResult out;
  out.spec = spec;
  out.points.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    out.points[p].label = points[p].label;
    out.points[p].config = points[p].config;
    out.points[p].trials.resize(trials);
  }
  while (auto event = server.wait_event()) {
    if (event->job_id != submitted.job_id) continue;
    if (event->kind == serve::ServeEvent::Kind::kJobDone) {
      if (done_out != nullptr) *done_out = *event;
      break;
    }
    EXPECT_LT(event->point, out.points.size());
    EXPECT_LT(event->trial, trials);
    out.points[event->point].trials[event->trial] = std::move(event->result);
  }
  for (runner::SweepPointResult& point : out.points) {
    point.summary = runner::TrialRunner::summarize(point.trials);
  }
  return out;
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("retri_serve_server_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

}  // namespace

TEST_F(ServeServerTest, ServedResultsAreBitIdenticalAndSecondSubmitAllHits) {
  const runner::SweepSpec spec = tiny_spec();
  const runner::SweepResult local =
      runner::SweepRunner(runner::SweepOptions{}).run(spec);

  retri::obs::MetricsRegistry metrics;
  serve::ServerOptions options;
  options.jobs = 2;
  options.metrics = &metrics;
  serve::Server server(options);

  // Cold cache: every cell simulates.
  auto first = server.submit(spec);
  ASSERT_TRUE(first.ok()) << first.error().reason;
  EXPECT_EQ(first.value().cells, 4u);
  serve::ServeEvent done1;
  const runner::SweepResult served1 =
      collect_job(server, spec, first.value(), &done1);
  EXPECT_EQ(done1.hits, 0u);
  EXPECT_EQ(done1.misses, 4u);
  EXPECT_TRUE(done1.error.empty());
  EXPECT_EQ(metrics.snapshot().counter("serve.trials.executed"), 4u);

  // The acceptance criterion: a served artifact is byte-identical to the
  // local SweepRunner's.
  EXPECT_EQ(runner::ResultSink::to_json(served1),
            runner::ResultSink::to_json(local));

  // Warm cache: zero executions, all four cells hit, still byte-identical.
  auto second = server.submit(spec);
  ASSERT_TRUE(second.ok()) << second.error().reason;
  EXPECT_NE(second.value().job_id, first.value().job_id);
  serve::ServeEvent done2;
  const runner::SweepResult served2 =
      collect_job(server, spec, second.value(), &done2);
  EXPECT_EQ(done2.hits, 4u);
  EXPECT_EQ(done2.misses, 0u);
  EXPECT_EQ(metrics.snapshot().counter("serve.trials.executed"), 4u)
      << "warm submit must not simulate";
  EXPECT_EQ(runner::ResultSink::to_json(served2),
            runner::ResultSink::to_json(local));
}

TEST_F(ServeServerTest, AdmissionRejectsJobsThatWouldOverfillTheQueue) {
  retri::obs::MetricsRegistry metrics;
  serve::ServerOptions options;
  options.queue_capacity = 1;
  options.metrics = &metrics;
  serve::Server server(options);

  // 4 miss cells against capacity 1: rejected whole, never half-admitted.
  auto rejected = server.submit(tiny_spec());
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().reason.find("queue full"), std::string::npos);
  EXPECT_GT(rejected.error().retry_after_ms, 0u);
  EXPECT_EQ(metrics.snapshot().counter("serve.jobs.rejected"), 1u);
  EXPECT_EQ(metrics.snapshot().counter("serve.trials.executed"), 0u);
  EXPECT_EQ(server.status().jobs_active, 0u);
}

TEST_F(ServeServerTest, DriftedCacheEntryIsInvalidatedAndReSimulated) {
  const runner::SweepSpec spec = tiny_spec();
  const runner::SweepResult local =
      runner::SweepRunner(runner::SweepOptions{}).run(spec);

  retri::obs::MetricsRegistry metrics;
  serve::ServerOptions options;
  options.metrics = &metrics;
  serve::Server server(options);

  auto first = server.submit(spec);
  ASSERT_TRUE(first.ok());
  collect_job(server, spec, first.value());

  // Relabel one entry's fingerprint: the body still decodes, but no longer
  // matches its label — exactly what a semantics-drifting bug would leave
  // behind. The server must invalidate and re-simulate, not serve it.
  const auto points = spec.expand();
  runner::ExperimentConfig cell0 = points[0].config;
  cell0.seed = runner::derive_trial_seed(points[0].config.seed, 0);
  const std::string key = serve::ResultCache::make_key(
      serve::kCodeVersion, serve::canonical_cell(cell0));
  auto entry = server.cache_for_test().get(key);
  ASSERT_TRUE(entry.has_value());
  server.cache_for_test().put(key, entry->kind, "drifted-fingerprint",
                              entry->body);

  auto second = server.submit(spec);
  ASSERT_TRUE(second.ok());
  serve::ServeEvent done;
  const runner::SweepResult served =
      collect_job(server, spec, second.value(), &done);
  EXPECT_EQ(done.hits, 3u);
  EXPECT_EQ(done.misses, 1u);
  EXPECT_EQ(metrics.snapshot().counter("serve.trials.executed"), 5u);
  EXPECT_EQ(runner::ResultSink::to_json(served),
            runner::ResultSink::to_json(local));
}

TEST_F(ServeServerTest, ResumesHalfFinishedJobFromCheckpointWithoutReSimulating) {
  const runner::SweepSpec spec = tiny_spec();
  const std::string hash = serve::spec_hash(spec);
  const fs::path cache_dir = root_ / "cache";
  const fs::path state_dir = root_ / "state";
  const fs::path checkpoint_path = state_dir / "jobs" / (hash + ".json");

  // Phase 1: a daemon fills the cache and completes the job cleanly — its
  // checkpoint record must be gone (nothing to resume).
  {
    serve::ServerOptions options;
    options.cache.dir = cache_dir.string();
    options.state_dir = state_dir.string();
    serve::Server server(options);
    auto submitted = server.submit(spec);
    ASSERT_TRUE(submitted.ok());
    collect_job(server, spec, submitted.value());
    EXPECT_FALSE(fs::exists(checkpoint_path));
  }

  // Phase 2: forge the crash. A daemon killed after committing only cell 0
  // leaves a checkpoint claiming {0} done; the cache still holds everything
  // it committed before dying (here: all cells, from phase 1).
  serve::JobCheckpoint crashed;
  crashed.spec_hash = hash;
  crashed.spec = spec;
  crashed.done = {0};
  fs::create_directories(checkpoint_path.parent_path());
  {
    std::ofstream out(checkpoint_path, std::ios::binary | std::ios::trunc);
    out << serve::encode_checkpoint(crashed) << '\n';
  }

  // Phase 3: a restarted daemon resumes the record; every cell hits the
  // reloaded cache, so resumption costs zero simulations.
  {
    retri::obs::MetricsRegistry metrics;
    serve::ServerOptions options;
    options.cache.dir = cache_dir.string();
    options.state_dir = state_dir.string();
    options.metrics = &metrics;
    serve::Server server(options);
    EXPECT_EQ(server.resume_checkpointed_jobs(), 1u);
    server.drain();

    std::size_t trial_events = 0;
    while (auto event = server.poll_event()) {
      if (event->kind == serve::ServeEvent::Kind::kTrial) {
        EXPECT_TRUE(event->cache_hit);
        ++trial_events;
      }
    }
    EXPECT_EQ(trial_events, 4u);
    EXPECT_EQ(metrics.snapshot().counter("serve.jobs.resumed"), 1u);
    EXPECT_EQ(metrics.snapshot().counter("serve.trials.executed"), 0u);
    EXPECT_FALSE(fs::exists(checkpoint_path));  // completed again, cleanly
  }

  // A checkpoint whose cells are all done and a corrupt record both resume
  // nothing and are swept from the state directory.
  serve::JobCheckpoint complete = crashed;
  complete.done = {0, 1, 2, 3};
  {
    std::ofstream out(checkpoint_path, std::ios::binary | std::ios::trunc);
    out << serve::encode_checkpoint(complete) << '\n';
  }
  const fs::path junk = state_dir / "jobs" / "feedfeedfeedfeed.json";
  {
    std::ofstream out(junk, std::ios::binary);
    out << "not a checkpoint\n";
  }
  {
    serve::ServerOptions options;
    options.cache.dir = cache_dir.string();
    options.state_dir = state_dir.string();
    serve::Server server(options);
    EXPECT_EQ(server.resume_checkpointed_jobs(), 0u);
    EXPECT_FALSE(fs::exists(checkpoint_path));
    EXPECT_FALSE(fs::exists(junk));
  }
}

TEST_F(ServeServerTest, ResultSinkV5EmitsServeProvenanceOnlyWhenAsked) {
  const runner::SweepSpec spec = tiny_spec();
  const runner::SweepResult result =
      runner::SweepRunner(runner::SweepOptions{}).run(spec);

  // Default artifact: no serve members at all — byte-comparable to any
  // pre-serve artifact of the same result.
  const std::string plain = runner::ResultSink::to_json(result);
  EXPECT_EQ(plain.find("served_by"), std::string::npos);
  EXPECT_EQ(plain.find("\"cache\""), std::string::npos);

  runner::ServeAnnotations annotations;
  annotations.served_by = "abc123def456-1";
  annotations.code_version = std::string(serve::kCodeVersion);
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    auto& trials = annotations.trials.emplace_back();
    for (unsigned t = 0; t < spec.trials; ++t) {
      trials.push_back({t == 0, "key-" + std::to_string(p * 10 + t)});
    }
  }
  const std::string annotated =
      runner::ResultSink::to_json(result, /*pretty=*/true, &annotations);

  const auto doc = retri::util::parse_json(annotated);
  ASSERT_TRUE(doc.ok()) << doc.error().describe();
  EXPECT_EQ(doc.value().i64("schema_version"), 6);
  EXPECT_EQ(doc.value().str("served_by"), "abc123def456-1");
  const retri::util::JsonValue* points = doc.value().find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_TRUE(points->is_array());
  ASSERT_EQ(points->size(), result.points.size());
  const retri::util::JsonValue* trials = (*points)[0].find("trials");
  ASSERT_NE(trials, nullptr);
  ASSERT_EQ(trials->size(), 2u);
  const retri::util::JsonValue* cache = (*trials)[0].find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->boolean("hit"));
  EXPECT_EQ(cache->str("key"), "key-0");
  EXPECT_EQ(cache->str("code_version"), serve::kCodeVersion);
  EXPECT_FALSE((*trials)[1].find("cache")->boolean("hit"));
}

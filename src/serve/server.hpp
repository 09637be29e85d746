// The sweep-serving core: jobs in, cached-or-computed trial results out.
//
// Server is the daemon's brain, deliberately socket-free so every behavior
// — admission control, cache verification, checkpoint/resume, completion
// streaming — is unit-testable in-process. The daemon layer (daemon.hpp)
// adds only fd plumbing on top.
//
// A submitted SweepSpec is expanded to its (point, trial) cells. Each cell
// is content-addressed (serve/codec.hpp canonical_cell + the code version)
// and probed against the ResultCache:
//   - hit: the body's CRC was already checked by the cache; the server
//     additionally decodes it and re-derives runner::fingerprint, rejecting
//     (and invalidating) any entry whose semantics drifted from its label.
//     Verified hits stream immediately, in cell order.
//   - miss: the cell is scheduled on the shared runner::ThreadPool; on
//     completion the result is committed to the cache, the job checkpoint
//     is advanced, and a trial event is queued in completion order.
// Backpressure is applied at admission: a submit whose miss-cells would
// push the in-flight count past queue_capacity is rejected whole with a
// retry-after hint, never half-admitted.
//
// Checkpoints (state_dir/jobs/<spec_hash>.json) record which cells are
// committed. A daemon killed mid-soak calls resume_checkpointed_jobs() on
// restart: incomplete specs are resubmitted, their finished cells hit the
// reloaded cache, and only the remainder re-simulates.
//
// Threading: public methods and worker completions serialize on one mutex
// (the MetricsRegistry and ResultCache are not thread-safe); simulations
// themselves run unlocked on pool workers. Events are delivered through
// poll_event()/wait_event() plus an optional event hook for the daemon's
// self-pipe.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "util/result.hpp"

namespace retri::serve {

struct ServerOptions {
  CacheOptions cache;
  /// Directory for job checkpoints (under <state_dir>/jobs/); empty
  /// disables checkpointing (and resume).
  std::string state_dir;
  /// Worker threads for cache-miss cells.
  unsigned jobs = 1;
  /// Max cache-miss cells in flight; submits that would exceed it are
  /// rejected with a retry-after hint.
  std::size_t queue_capacity = 256;
  /// Registry for serve.jobs.* / serve.queue.depth (and, via `cache`,
  /// serve.cache.*) metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One unit of streamed output, in completion order. kTrial carries a
/// decoded-or-computed trial result; kJobDone closes a job's stream.
struct ServeEvent {
  enum class Kind { kTrial, kJobDone };
  Kind kind = Kind::kTrial;
  std::string job_id;

  // kTrial
  std::uint64_t cell = 0;  // flattened point * trials + trial
  std::size_t point = 0;
  unsigned trial = 0;
  std::string label;
  bool cache_hit = false;
  std::string key;  // content address of the cell
  runner::ExperimentResult result;

  // kJobDone
  std::uint64_t cells = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::string error;  // non-empty if any cell failed (job incomplete)

  /// Wire fields of a "trial" message (util/json_fields.hpp).
  template <class Self, class F>
  static void trial_fields(Self& s, F&& f) {
    f("job", s.job_id);
    f("cell", s.cell);
    f("point", s.point);
    f("trial", s.trial);
    f("label", s.label);
    f("cache_hit", s.cache_hit);
    f("key", s.key);
    f("result", s.result);
  }
  /// Wire fields of a "done" message.
  template <class Self, class F>
  static void done_fields(Self& s, F&& f) {
    f("job", s.job_id);
    f("cells", s.cells);
    f("hits", s.hits);
    f("misses", s.misses);
    f("error", s.error);
  }
};

struct Submitted {
  std::string job_id;
  std::size_t points = 0;
  unsigned trials = 0;
  std::uint64_t cells = 0;

  /// Wire fields of the "accepted" message (util/json_fields.hpp).
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("job", s.job_id);
    f("points", s.points);
    f("trials", s.trials);
    f("cells", s.cells);
  }
};

struct Rejection {
  std::string reason;
  std::uint64_t retry_after_ms = 0;

  /// Wire fields of the "rejected" message.
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("reason", s.reason);
    f("retry_after_ms", s.retry_after_ms);
  }
};

struct ServerStatus {
  std::uint64_t jobs_active = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t queue_depth = 0;  // in-flight miss cells
  std::uint64_t events_pending = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_quarantined = 0;  // untrusted store files removed
  /// Open client connections. The socket-free Server always reports 0; the
  /// daemon overwrites this before encoding a status reply.
  std::uint64_t connections_active = 0;

  /// Wire fields of the "status" reply.
  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f("jobs_active", s.jobs_active);
    f("jobs_submitted", s.jobs_submitted);
    f("jobs_completed", s.jobs_completed);
    f("jobs_rejected", s.jobs_rejected);
    f("queue_depth", s.queue_depth);
    f("events_pending", s.events_pending);
    f("cache_entries", s.cache_entries);
    f("cache_bytes", s.cache_bytes);
    f("cache_hits", s.cache_hits);
    f("cache_misses", s.cache_misses);
    f("cache_quarantined", s.cache_quarantined);
    f("connections_active", s.connections_active);
  }
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Expands, admission-checks, and starts `spec`. Cache hits stream their
  /// trial events before this returns; misses are scheduled. job_id is
  /// spec_hash-prefixed plus an instance sequence, so resubmitting the same
  /// grid yields distinct event streams over the same content addresses.
  util::Result<Submitted, Rejection> submit(const runner::SweepSpec& spec);

  /// Pops the next queued event (nullopt when none pending).
  std::optional<ServeEvent> poll_event();

  /// Blocks until an event is available or no job could ever produce one
  /// (all jobs finished and drained) — then nullopt.
  std::optional<ServeEvent> wait_event();

  /// Blocks until every admitted job has finished (events stay queued).
  void drain();

  ServerStatus status();

  /// Rescans state_dir/jobs and resubmits every incomplete checkpoint.
  /// Returns the number of jobs resumed; their events are delivered like
  /// any other (a daemon with no attached client discards them).
  std::size_t resume_checkpointed_jobs();

  /// Invoked (unlocked) after each event is queued; the daemon points this
  /// at its self-pipe so pool workers can wake the poll loop.
  void set_event_hook(std::function<void()> hook);

  /// Direct cache access for tests (single-threaded use only).
  ResultCache& cache_for_test() { return cache_; }

 private:
  struct Job {
    std::string id;
    std::string hash;
    runner::SweepSpec spec;
    std::uint64_t cells_total = 0;
    std::uint64_t cells_done = 0;
    // Per-job protocol state echoed in the done event, not metrics — the
    // aggregate serve.cache.* counters live on the obs registry.
    std::uint64_t hit_count = 0;   // retri-lint: allow(no-adhoc-counter)
    std::uint64_t miss_count = 0;  // retri-lint: allow(no-adhoc-counter)
    std::vector<std::uint64_t> done_cells;
    std::string error;
  };

  void run_cell(const std::string& job_id, std::uint64_t cell,
                std::size_t point, unsigned trial, std::string label,
                runner::ExperimentConfig config, std::string key);
  void push_event_locked(ServeEvent event);
  void finish_job_locked(Job& job);
  void write_checkpoint_locked(const Job& job) const;
  void notify();  // cv + hook, called after releasing the lock

  ServerOptions options_;
  std::string jobs_dir_;  // state_dir/jobs, empty if checkpointing is off

  std::mutex mutex_;
  std::condition_variable event_cv_;
  ResultCache cache_;
  std::deque<ServeEvent> events_;
  std::map<std::string, Job> jobs_;  // job_id → state (active only)
  std::function<void()> event_hook_;
  std::size_t in_flight_ = 0;
  std::uint64_t seq_ = 0;

  obs::Counter jobs_submitted_;
  obs::Counter jobs_completed_;
  obs::Counter jobs_rejected_;
  obs::Counter jobs_resumed_;
  obs::Counter trials_served_;
  obs::Counter trials_executed_;
  obs::Gauge queue_depth_;

  // Last: workers join before any other member is destroyed.
  runner::ThreadPool pool_;
};

}  // namespace retri::serve

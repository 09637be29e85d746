#include "serve/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "runner/trial_runner.hpp"
#include "serve/io.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "util/json_parse.hpp"
#include "util/wallclock.hpp"

namespace retri::serve {

namespace {

using Kind = ClientError::Kind;

ClientError make_error(Kind kind, std::string message,
                       std::uint64_t retry_after_ms = 0) {
  ClientError error;
  error.kind = kind;
  error.message = std::move(message);
  error.retry_after_ms = retry_after_ms;
  return error;
}

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Non-blocking connect bounded by poll: a daemon that accept()s but never
/// schedules us cannot hang the client past its op timeout. The fd comes
/// back still non-blocking — read_fd/write_fd poll before every syscall and
/// treat EAGAIN as "poll again", so blocking mode is never needed.
util::Result<int, ClientError> connect_uds(const std::string& path,
                                           std::uint64_t deadline_at_ms) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return make_error(Kind::kConnect, "bad socket path: " + path);
  }
  Fd guard;
  guard.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (guard.fd < 0) {
    return make_error(Kind::kConnect,
                      std::string("socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(guard.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    if (errno != EINPROGRESS && errno != EINTR && errno != EAGAIN) {
      return make_error(Kind::kConnect, "connect(" + path +
                                            "): " + std::strerror(errno));
    }
    pollfd pfd{guard.fd, POLLOUT, 0};
    while (true) {
      int timeout = -1;
      if (deadline_at_ms != 0) {
        const std::uint64_t now = util::monotonic_now_ms();
        if (now >= deadline_at_ms) {
          return make_error(Kind::kTimeout, "connect(" + path + "): timeout");
        }
        timeout = static_cast<int>(
            std::min<std::uint64_t>(deadline_at_ms - now, 1u << 30));
      }
      const int ready = ::poll(&pfd, 1, timeout);
      if (ready > 0) break;
      if (ready == 0) {
        return make_error(Kind::kTimeout, "connect(" + path + "): timeout");
      }
      if (errno == EINTR) continue;
      return make_error(Kind::kConnect,
                        std::string("poll(connect): ") + std::strerror(errno));
    }
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (::getsockopt(guard.fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      return make_error(Kind::kConnect,
                        "connect(" + path +
                            "): " + std::strerror(soerr != 0 ? soerr : errno));
    }
  }
  return std::exchange(guard.fd, -1);
}

/// One connection's protocol state. op_key is constant — client fault
/// decisions key on (family, op_key, ordinal) and the ordinal advances per
/// syscall opportunity, so a test's injected fault schedule is a pure
/// function of the plan, not of kernel read sizes.
struct Session {
  int fd = -1;
  FrameDecoder decoder;
  std::uint64_t read_ordinal = 0;
  std::uint64_t write_ordinal = 0;
  fault::IoFaultInjector* faults = nullptr;
};

constexpr std::string_view kOpKey = "serve.client";

util::Result<int, ClientError> send_message(Session& session,
                                            const std::string& body,
                                            std::uint64_t deadline_at_ms) {
  const std::string frame = encode_frame(body);
  const IoOutcome out = write_fd(session.fd, frame, deadline_at_ms, kOpKey,
                                 session.write_ordinal, session.faults);
  switch (out.status) {
    case IoStatus::kOk:
      return 0;
    case IoStatus::kTimeout:
      return make_error(Kind::kTimeout, "send: timed out");
    case IoStatus::kClosed:
      return make_error(Kind::kIo, "send: daemon closed the connection");
    case IoStatus::kError:
      break;
  }
  return make_error(Kind::kIo,
                    std::string("send: ") + std::strerror(out.err));
}

util::Result<util::JsonDocument, ClientError> read_message(
    Session& session, std::uint64_t deadline_at_ms) {
  std::string body;
  while (true) {
    if (auto next = session.decoder.next()) {
      body = std::move(*next);
      break;
    }
    if (session.decoder.corrupt()) {
      return make_error(Kind::kProtocol, "corrupt frame from daemon");
    }
    char buf[65536];
    const IoOutcome out =
        read_fd(session.fd, buf, sizeof buf, deadline_at_ms, kOpKey,
                session.read_ordinal, session.faults);
    if (out.status == IoStatus::kTimeout) {
      return make_error(Kind::kTimeout, "read: timed out");
    }
    if (out.status == IoStatus::kClosed) {
      return make_error(Kind::kIo, "daemon closed the connection mid-stream");
    }
    if (out.status == IoStatus::kError) {
      return make_error(Kind::kIo,
                        std::string("read: ") + std::strerror(out.err));
    }
    session.decoder.feed(std::string_view(buf, out.bytes));
  }
  auto parsed = util::parse_json(body);
  if (!parsed.ok()) {
    return make_error(Kind::kProtocol,
                      "bad frame: " + parsed.error().describe());
  }
  return std::move(parsed).value();
}

/// Runs `attempt` under the options' retry policy. Transient error kinds
/// (connect/timeout/io/rejected) back off and retry; kProtocol and kDaemon
/// fail fast — a daemon that speaks the wrong protocol or reports a
/// deterministic job failure will do so again on every retry.
template <typename T, typename Attempt>
util::Result<T, ClientError> with_retries(const ClientOptions& options,
                                          Attempt&& attempt) {
  RetryClock& clock =
      options.clock != nullptr ? *options.clock : system_retry_clock();
  RetrySchedule schedule(options.retry, clock);
  obs::Counter retries;
  obs::Counter rejected;
  obs::Counter exhausted;
  if (options.metrics != nullptr) {
    retries = options.metrics->counter("serve.client.retries");
    rejected = options.metrics->counter("serve.client.rejected");
    exhausted = options.metrics->counter("serve.client.deadline_exhausted");
  }
  ClientError last = make_error(Kind::kDeadline, "no attempt made");
  while (schedule.can_attempt()) {
    schedule.begin_attempt();
    util::Result<T, ClientError> result = attempt(schedule);
    if (result.ok()) return result;
    last = std::move(result).error();
    last.attempts = schedule.attempts();
    if (last.kind == Kind::kProtocol || last.kind == Kind::kDaemon) {
      return last;
    }
    if (last.kind == Kind::kRejected) rejected.inc();
    if (!schedule.can_attempt()) break;
    retries.inc();
    schedule.backoff(last.kind == Kind::kRejected ? last.retry_after_ms : 0);
  }
  if (schedule.remaining_ms() == 0) {
    exhausted.inc();
    ClientError deadline = make_error(
        Kind::kDeadline, "deadline exhausted; last: " + last.describe(),
        last.retry_after_ms);
    deadline.attempts = schedule.attempts();
    return deadline;
  }
  return last;
}

util::Result<ServedSweep, ClientError> attempt_sweep(
    const std::string& socket_path, const runner::SweepSpec& spec,
    const ClientOptions& options, RetrySchedule& schedule) {
  auto connected = connect_uds(socket_path, schedule.op_deadline_at_ms());
  if (!connected.ok()) return connected.error();
  Fd fd{connected.value()};
  Session session;
  session.fd = fd.fd;
  session.faults = options.io_faults;

  if (auto sent = send_message(session, encode_submit(spec),
                               schedule.op_deadline_at_ms());
      !sent.ok()) {
    return sent.error();
  }
  auto reply = read_message(session, schedule.op_deadline_at_ms());
  if (!reply.ok()) return reply.error();
  const std::string type = message_type(reply.value());
  if (type == "rejected") {
    auto rejection = decode_rejected(reply.value());
    return make_error(
        Kind::kRejected,
        "daemon shed the job (" +
            (rejection.ok() ? rejection.value().reason : "unknown") + ")",
        rejection.ok() ? rejection.value().retry_after_ms : 0);
  }
  if (type == "error") {
    return make_error(Kind::kDaemon,
                      "daemon error: " + reply.value().str("message"));
  }
  auto accepted = decode_accepted(reply.value());
  if (!accepted.ok()) {
    return make_error(Kind::kProtocol, accepted.error());
  }

  // Expansion is deterministic, so the skeleton (labels, per-point configs)
  // is rebuilt locally and only results travel.
  ServedSweep served;
  served.job_id = accepted.value().job_id;
  served.result.spec = spec;
  const std::vector<runner::SweepPoint> points = spec.expand();
  const unsigned trials = std::max(1u, spec.trials);
  if (accepted.value().cells !=
      static_cast<std::uint64_t>(points.size()) * trials) {
    return make_error(Kind::kProtocol,
                      "daemon expanded a different grid (version skew "
                      "between client and daemon?)");
  }
  served.result.points.resize(points.size());
  served.cache_info.assign(points.size(),
                           std::vector<TrialCacheInfo>(trials));
  std::vector<bool> seen(points.size() * trials, false);
  for (std::size_t p = 0; p < points.size(); ++p) {
    served.result.points[p].label = points[p].label;
    served.result.points[p].config = points[p].config;
    served.result.points[p].trials.resize(trials);
  }

  std::uint64_t received = 0;
  while (true) {
    auto message = read_message(session, schedule.op_deadline_at_ms());
    if (!message.ok()) return message.error();
    auto event = decode_event(message.value());
    if (!event.ok()) return make_error(Kind::kProtocol, event.error());
    ServeEvent& ev = event.value();
    if (ev.kind == ServeEvent::Kind::kTrial) {
      if (ev.point >= points.size() || ev.trial >= trials) {
        return make_error(Kind::kProtocol,
                          "trial event outside the submitted grid");
      }
      if (seen[ev.point * trials + ev.trial]) {
        return make_error(Kind::kProtocol,
                          "second trial event for point " +
                              std::to_string(ev.point) + " trial " +
                              std::to_string(ev.trial));
      }
      seen[ev.point * trials + ev.trial] = true;
      served.result.points[ev.point].trials[ev.trial] = std::move(ev.result);
      served.cache_info[ev.point][ev.trial] =
          TrialCacheInfo{ev.cache_hit, std::move(ev.key)};
      ++received;
      continue;
    }
    if (!ev.error.empty()) {
      return make_error(Kind::kDaemon, "job failed on the daemon: " + ev.error);
    }
    if (received != ev.cells) {
      return make_error(Kind::kProtocol,
                        "stream ended short of the full grid");
    }
    served.hits = ev.hits;
    served.misses = ev.misses;
    break;
  }

  // Same fold as SweepRunner: trial-index order, after all results landed —
  // completion order on the wire cannot leak into the summaries.
  for (runner::SweepPointResult& point : served.result.points) {
    point.summary = runner::TrialRunner::summarize(point.trials);
  }
  served.attempts = schedule.attempts();
  return served;
}

}  // namespace

std::string_view to_string(ClientError::Kind kind) {
  switch (kind) {
    case Kind::kConnect:
      return "connect";
    case Kind::kTimeout:
      return "timeout";
    case Kind::kDeadline:
      return "deadline";
    case Kind::kRejected:
      return "rejected";
    case Kind::kIo:
      return "io";
    case Kind::kProtocol:
      return "protocol";
    case Kind::kDaemon:
      return "daemon";
  }
  return "unknown";
}

std::string ClientError::describe() const {
  std::string line(to_string(kind));
  line += ": ";
  line += message;
  if (attempts > 1) {
    line += " (after " + std::to_string(attempts) + " attempts)";
  }
  return line;
}

util::Result<ServedSweep, ClientError> run_sweep_via(
    const std::string& socket_path, const runner::SweepSpec& spec,
    const ClientOptions& options) {
  return with_retries<ServedSweep>(
      options, [&](RetrySchedule& schedule) {
        return attempt_sweep(socket_path, spec, options, schedule);
      });
}

util::Result<ServerStatus, ClientError> fetch_status(
    const std::string& socket_path, const ClientOptions& options) {
  return with_retries<ServerStatus>(
      options,
      [&](RetrySchedule& schedule) -> util::Result<ServerStatus, ClientError> {
        auto connected =
            connect_uds(socket_path, schedule.op_deadline_at_ms());
        if (!connected.ok()) return connected.error();
        Fd fd{connected.value()};
        Session session;
        session.fd = fd.fd;
        session.faults = options.io_faults;
        if (auto sent = send_message(session, encode_status_request(),
                                     schedule.op_deadline_at_ms());
            !sent.ok()) {
          return sent.error();
        }
        auto reply = read_message(session, schedule.op_deadline_at_ms());
        if (!reply.ok()) return reply.error();
        auto status = decode_status(reply.value());
        if (!status.ok()) return make_error(Kind::kProtocol, status.error());
        return std::move(status).value();
      });
}

util::Result<int, ClientError> request_shutdown(
    const std::string& socket_path, const ClientOptions& options) {
  return with_retries<int>(
      options,
      [&](RetrySchedule& schedule) -> util::Result<int, ClientError> {
        auto connected =
            connect_uds(socket_path, schedule.op_deadline_at_ms());
        if (!connected.ok()) return connected.error();
        Fd fd{connected.value()};
        Session session;
        session.fd = fd.fd;
        session.faults = options.io_faults;
        if (auto sent = send_message(session, encode_shutdown(),
                                     schedule.op_deadline_at_ms());
            !sent.ok()) {
          return sent.error();
        }
        auto reply = read_message(session, schedule.op_deadline_at_ms());
        if (!reply.ok()) return reply.error();
        if (message_type(reply.value()) != "bye") {
          return make_error(Kind::kProtocol, "unexpected reply to shutdown");
        }
        return 0;
      });
}

util::Result<ServedSweep, std::string> run_sweep_via(
    const std::string& socket_path, const runner::SweepSpec& spec) {
  auto served = run_sweep_via(socket_path, spec, ClientOptions{});
  if (!served.ok()) return served.error().describe();
  return std::move(served).value();
}

util::Result<ServerStatus, std::string> fetch_status(
    const std::string& socket_path) {
  auto status = fetch_status(socket_path, ClientOptions{});
  if (!status.ok()) return status.error().describe();
  return std::move(status).value();
}

util::Result<int, std::string> request_shutdown(
    const std::string& socket_path) {
  auto done = request_shutdown(socket_path, ClientOptions{});
  if (!done.ok()) return done.error().describe();
  return std::move(done).value();
}

}  // namespace retri::serve

#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "util/json_parse.hpp"
#include "util/wallclock.hpp"

namespace retri::serve {

namespace {

// Signal-handler context. A handler may only touch async-signal-safe state,
// which rules out every owned-by-value alternative: the flag must be a
// namespace-scope sig_atomic_t and the wake fd a plain int the handler can
// read without locking. Both are written once at startup (before handlers
// are installed) and then only by the handler itself.
volatile std::sig_atomic_t g_drain_requested = 0;  // retri-lint: allow(no-global-mutable-state)
int g_signal_wake_fd = -1;  // retri-lint: allow(no-global-mutable-state)

void request_drain(int /*signo*/) {
  g_drain_requested = 1;
  if (g_signal_wake_fd >= 0) {
    const char byte = 1;
    // write() is async-signal-safe; a full pipe means a wakeup is already
    // pending, so dropping the byte is correct.
    [[maybe_unused]] const ssize_t n = ::write(g_signal_wake_fd, &byte, 1);
  }
}

struct Connection {
  FrameDecoder decoder;
  std::string outbound;
  std::set<std::string> jobs;  // job ids whose events stream to this peer
  /// Last time bytes arrived; the eviction clock for mid-frame stalls.
  std::uint64_t last_activity_ms = 0;
};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

util::Result<int, std::string> run_daemon(const DaemonOptions& options) {
  if (options.socket_path.empty()) {
    return std::string("daemon: socket path required");
  }
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return std::string("daemon: socket path too long for AF_UNIX");
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return errno_text("daemon: socket()");
  ::unlink(options.socket_path.c_str());  // stale socket from a killed daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    std::string error = errno_text("daemon: bind()");
    ::close(listen_fd);
    return error;
  }
  if (::listen(listen_fd, 8) != 0) {
    std::string error = errno_text("daemon: listen()");
    ::close(listen_fd);
    return error;
  }
  set_nonblocking(listen_fd);

  // Self-pipe: the Server's event hook runs on pool workers and the signal
  // handler runs anywhere; one byte here wakes the poll loop without the
  // daemon needing a thread of its own.
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    std::string error = errno_text("daemon: pipe()");
    ::close(listen_fd);
    return error;
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);

  if (options.install_signal_handlers) {
    g_drain_requested = 0;
    g_signal_wake_fd = pipe_fds[1];
    std::signal(SIGTERM, request_drain);
    std::signal(SIGINT, request_drain);
  }

  Server server(options.server);
  const int wake_fd = pipe_fds[1];
  server.set_event_hook([wake_fd] {
    const char byte = 1;
    // A full pipe means a wakeup is already pending — dropping is correct.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
  });

  obs::Counter conns_accepted;
  obs::Counter conns_shed;
  obs::Counter conns_evicted;
  if (options.server.metrics != nullptr) {
    conns_accepted = options.server.metrics->counter("serve.conn.accepted");
    conns_shed = options.server.metrics->counter("serve.conn.shed");
    conns_evicted = options.server.metrics->counter("serve.conn.evicted");
  }

  const std::size_t resumed = server.resume_checkpointed_jobs();
  if (options.verbose) {
    std::fprintf(stderr,  // retri-lint: allow(no-direct-io)
                 "retri_serve: listening on %s (%zu checkpointed jobs resumed)\n",
                 options.socket_path.c_str(), resumed);
  }

  std::map<int, Connection> connections;
  bool stopping = false;

  const auto send_body = [](Connection& conn, const std::string& body) {
    append_frame(conn.outbound, body);
  };

  // Routes queued server events to the connection that owns each job.
  // Ownerless events (client vanished, or a checkpoint-resumed job) are
  // discarded — their results already live in the cache.
  const auto pump_events = [&] {
    while (auto event = server.poll_event()) {
      Connection* owner = nullptr;
      for (auto& [fd, conn] : connections) {
        if (conn.jobs.count(event->job_id) != 0) {
          owner = &conn;
          break;
        }
      }
      if (owner == nullptr) continue;
      send_body(*owner, encode_event(*event));
      if (event->kind == ServeEvent::Kind::kJobDone) {
        owner->jobs.erase(event->job_id);
      }
    }
  };

  const auto handle_body = [&](Connection& conn, const std::string& body) {
    auto parsed = util::parse_json(body);
    if (!parsed.ok()) {
      send_body(conn, encode_error("bad frame: " + parsed.error().describe()));
      return;
    }
    const std::string type = message_type(parsed.value());
    if (type == "submit") {
      const util::JsonValue* spec_doc = parsed.value().find("spec");
      if (spec_doc == nullptr) {
        send_body(conn, encode_error("submit: missing spec"));
        return;
      }
      auto spec = decode_sweep_spec(*spec_doc);
      if (!spec.ok()) {
        send_body(conn, encode_error("submit: " + spec.error()));
        return;
      }
      auto submitted = server.submit(spec.value());
      if (submitted.ok()) {
        conn.jobs.insert(submitted.value().job_id);
        send_body(conn, encode_accepted(submitted.value()));
      } else {
        send_body(conn, encode_rejected(submitted.error()));
      }
    } else if (type == "status") {
      ServerStatus status = server.status();
      status.connections_active = connections.size();
      send_body(conn, encode_status(status));
    } else if (type == "shutdown") {
      send_body(conn, encode_bye());
      stopping = true;
    } else {
      send_body(conn, encode_error("unknown message type \"" + type + "\""));
    }
  };

  while (true) {
    if (g_drain_requested != 0 && !stopping) {
      stopping = true;
      if (options.verbose) {
        std::fprintf(stderr,  // retri-lint: allow(no-direct-io)
                     "retri_serve: drain requested, finishing in-flight work\n");
      }
    }
    pump_events();
    if (stopping && server.status().jobs_active == 0) {
      bool flushed = true;
      for (const auto& [fd, conn] : connections) {
        if (!conn.outbound.empty()) {
          flushed = false;
          break;
        }
      }
      if (flushed) break;
    }

    // Slow-loris eviction: only a peer stalled MID-FRAME is hostile (or
    // broken); an idle connection between frames is a client waiting on its
    // job stream and stays. The poll timeout is bounded by the nearest
    // pending deadline so eviction cannot be starved by a quiet socket.
    int timeout = -1;
    if (options.read_deadline_ms != 0) {
      const std::uint64_t now = util::monotonic_now_ms();
      std::vector<int> stalled;
      for (auto& [fd, conn] : connections) {
        if (conn.decoder.pending() == 0) continue;
        const std::uint64_t stalled_for = now - conn.last_activity_ms;
        if (stalled_for >= options.read_deadline_ms) {
          stalled.push_back(fd);
          continue;
        }
        const auto left =
            static_cast<int>(options.read_deadline_ms - stalled_for);
        timeout = timeout < 0 ? left : std::min(timeout, left);
      }
      for (const int fd : stalled) {
        conns_evicted.inc();
        ::close(fd);
        connections.erase(fd);
      }
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    fds.push_back(pollfd{pipe_fds[0], POLLIN, 0});
    for (const auto& [fd, conn] : connections) {
      short events = POLLIN;
      if (!conn.outbound.empty()) {
        events = static_cast<short>(events | POLLOUT);
      }
      fds.push_back(pollfd{fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signals land here; drain check above
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      while (true) {
        const int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0) {
          if (errno == EINTR) continue;
          break;
        }
        // Shed at the door when full (or draining): one best-effort
        // rejected frame tells a well-behaved client when to come back,
        // then the fd closes either way.
        const bool full = options.max_connections != 0 &&
                          connections.size() >= options.max_connections;
        if (full || stopping) {
          conns_shed.inc();
          const std::string frame = encode_frame(encode_rejected(Rejection{
              stopping ? "daemon is draining" : "too many connections",
              1000}));
          [[maybe_unused]] const ssize_t n =
              ::send(client, frame.data(), frame.size(), MSG_NOSIGNAL);
          ::close(client);
          continue;
        }
        set_nonblocking(client);
        conns_accepted.inc();
        Connection conn;
        conn.last_activity_ms = util::monotonic_now_ms();
        connections.emplace(client, std::move(conn));
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char sink[256];
      while (true) {
        const ssize_t n = ::read(pipe_fds[0], sink, sizeof sink);
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        break;
      }
    }

    std::vector<int> dead;
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const auto it = connections.find(fd);
      if (it == connections.end()) continue;
      Connection& conn = it->second;

      if ((fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
        dead.push_back(fd);
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        char buf[65536];
        while (true) {
          const ssize_t n = ::read(fd, buf, sizeof buf);
          if (n > 0) {
            conn.decoder.feed(
                std::string_view(buf, static_cast<std::size_t>(n)));
            conn.last_activity_ms = util::monotonic_now_ms();
            continue;
          }
          if (n == 0) {
            dead.push_back(fd);  // peer closed
            break;
          }
          if (errno == EINTR) continue;
          break;  // EAGAIN (drained) or error caught on next poll
        }
        while (auto body = conn.decoder.next()) {
          handle_body(conn, *body);
        }
        if (conn.decoder.corrupt()) {
          // Cannot resynchronize inside a byte stream; drop the peer.
          dead.push_back(fd);
        }
        pump_events();  // submits may have streamed cache hits synchronously
      }
      if ((fds[i].revents & POLLOUT) != 0 && !conn.outbound.empty()) {
        while (!conn.outbound.empty()) {
          const ssize_t n = ::send(fd, conn.outbound.data(),
                                   conn.outbound.size(), MSG_NOSIGNAL);
          if (n > 0) {
            conn.outbound.erase(0, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          dead.push_back(fd);
          break;
        }
      }
    }
    for (const int fd : dead) {
      // erase() guards the close: a peer can land in `dead` twice (EOF and
      // a corrupt decoder), and double-closing would hit a reused fd.
      if (connections.erase(fd) != 0) ::close(fd);
    }
  }

  if (options.install_signal_handlers) {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_signal_wake_fd = -1;
  }
  for (const auto& [fd, conn] : connections) ::close(fd);
  ::close(listen_fd);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  ::unlink(options.socket_path.c_str());
  if (options.verbose) {
    std::fprintf(stderr,  // retri-lint: allow(no-direct-io)
                 "retri_serve: shut down cleanly\n");
  }
  return 0;
}

}  // namespace retri::serve

// serve::run_sweep_via against a scripted daemon: a socket that answers a
// submit with hand-picked frames, so the client's checks on the stream
// itself can be exercised without a real Server behind it.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace serve = retri::serve;
namespace runner = retri::runner;
namespace fs = std::filesystem;

namespace {

/// A listening Unix socket that, on the first connection, reads one
/// request frame, writes `replies` and waits for the client to hang up.
class ScriptedDaemon {
 public:
  ScriptedDaemon(std::string path, std::vector<std::string> replies)
      : path_(std::move(path)), replies_(std::move(replies)) {
    fs::remove(path_);
    listener_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    bound_ = listener_ >= 0 &&
             ::bind(listener_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0 &&
             ::listen(listener_, 1) == 0;
    pool_.submit([this] { serve_one(); });
  }
  ~ScriptedDaemon() {
    pool_.wait_idle();
    if (listener_ >= 0) ::close(listener_);
    fs::remove(path_);
  }
  ScriptedDaemon(const ScriptedDaemon&) = delete;
  ScriptedDaemon& operator=(const ScriptedDaemon&) = delete;

  bool bound() const { return bound_; }

 private:
  static bool readable(int fd) {
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, /*timeout_ms=*/10000) > 0;
  }

  void serve_one() {
    if (!bound_ || !readable(listener_)) return;
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) return;
    serve::FrameDecoder decoder;
    char buf[4096];
    while (!decoder.next()) {
      if (!readable(fd)) break;
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
    std::string out;
    for (const std::string& reply : replies_) serve::append_frame(out, reply);
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    while (readable(fd) && ::read(fd, buf, sizeof buf) > 0) {
    }
    ::close(fd);
  }

  std::string path_;
  std::vector<std::string> replies_;
  int listener_ = -1;
  bool bound_ = false;
  runner::ThreadPool pool_{1};
};

serve::ServeEvent trial_event(std::size_t point, unsigned trial) {
  serve::ServeEvent event;
  event.kind = serve::ServeEvent::Kind::kTrial;
  event.job_id = "job-1";
  event.cell = point * 2 + trial;
  event.point = point;
  event.trial = trial;
  event.label = "base";
  event.key = "0123456789abcdef";
  return event;
}

}  // namespace

TEST(ServeClient, RejectsASecondTrialEventForTheSameCell) {
  // A one-point, two-trial grid streamed as trial 0 twice and never trial
  // 1: the event count matches the grid, but the sweep is not complete.
  runner::SweepSpec spec;
  spec.name = "dup";
  spec.trials = 2;
  ASSERT_EQ(spec.expand().size(), 1u);

  serve::ServeEvent done;
  done.kind = serve::ServeEvent::Kind::kJobDone;
  done.job_id = "job-1";
  done.cells = 2;
  const std::string path =
      (fs::temp_directory_path() / "retri_serve_client_dup.sock").string();
  ScriptedDaemon daemon(
      path, {serve::encode_accepted(serve::Submitted{"job-1", 1, 2, 2}),
             serve::encode_event(trial_event(0, 0)),
             serve::encode_event(trial_event(0, 0)),
             serve::encode_event(done)});
  ASSERT_TRUE(daemon.bound());

  serve::ClientOptions options;
  options.retry.max_attempts = 1;
  const auto served = serve::run_sweep_via(path, spec, options);
  ASSERT_FALSE(served.ok()) << "a duplicated trial was accepted";
  EXPECT_EQ(served.error().kind, serve::ClientError::Kind::kProtocol);
  EXPECT_NE(served.error().message.find("second trial event for point 0 "
                                        "trial 0"),
            std::string::npos)
      << served.error().describe();
}

// Wire framing for the serve daemon: length-prefixed JSON messages.
//
// A frame is a 4-byte big-endian body length followed by exactly that many
// bytes of compact JSON. Length prefixing (rather than newline delimiting)
// keeps the body format unconstrained — embedded result bodies may contain
// any byte sequence JSON can express — and lets the decoder reject
// oversized frames before buffering them.
//
// The codec is deliberately socket-free: FrameDecoder consumes arbitrary
// byte slices (however the kernel fragments them) and yields complete
// bodies, so the whole protocol is unit-testable by feeding strings. The
// daemon and client own the actual fds.
//
// Message bodies are JSON objects with a "type" member:
//   client → server: submit {spec}, status {}, shutdown {}
//   server → client: accepted, rejected (reason, retry_after_ms), trial,
//                    done, status, error, bye
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace retri::serve {

/// Upper bound on one frame body. Generous for trial results (tens of KB)
/// while still rejecting a garbage length prefix before allocation.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Renders `body` as one complete frame (prefix + body).
std::string encode_frame(std::string_view body);
/// Appends the frame for `body` to `out` (an outbound buffer).
void append_frame(std::string& out, std::string_view body);

/// Incremental frame reassembly over an untrusted byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Appends raw bytes as they arrive from the peer.
  void feed(std::string_view bytes);

  /// Next complete frame body, or nullopt when more bytes are needed. After
  /// a frame whose declared length exceeds the bound, the decoder latches
  /// corrupt() and yields nothing further — the connection must be dropped
  /// (resynchronizing inside a byte stream is guesswork).
  std::optional<std::string> next();

  bool corrupt() const noexcept { return corrupt_; }
  /// Bytes buffered but not yet returned (diagnostics).
  std::size_t pending() const noexcept { return buffer_.size() - offset_; }

 private:
  std::string buffer_;
  std::size_t offset_ = 0;  // consumed prefix of buffer_
  std::size_t max_frame_;
  bool corrupt_ = false;
};

}  // namespace retri::serve

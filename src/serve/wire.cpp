#include "serve/wire.hpp"

#include <cstdint>

namespace retri::serve {

std::string encode_frame(std::string_view body) {
  std::string frame;
  append_frame(frame, body);
  return frame;
}

void append_frame(std::string& out, std::string_view body) {
  const auto len = static_cast<std::uint32_t>(body.size());
  const char prefix[4] = {static_cast<char>((len >> 24) & 0xff),
                          static_cast<char>((len >> 16) & 0xff),
                          static_cast<char>((len >> 8) & 0xff),
                          static_cast<char>(len & 0xff)};
  out.append(prefix, sizeof prefix);
  out.append(body);
}

void FrameDecoder::feed(std::string_view bytes) {
  if (corrupt_) return;
  buffer_.append(bytes);
}

std::optional<std::string> FrameDecoder::next() {
  if (corrupt_) return std::nullopt;
  if (buffer_.size() - offset_ < 4) return std::nullopt;
  const auto byte = [this](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(buffer_[offset_ + i]));
  };
  const std::uint32_t len =
      (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
  if (len > max_frame_) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buffer_.size() - offset_ < 4 + static_cast<std::size_t>(len)) {
    return std::nullopt;
  }
  std::string body = buffer_.substr(offset_ + 4, len);
  offset_ += 4 + static_cast<std::size_t>(len);
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  return body;
}

}  // namespace retri::serve

#include "util/json_parse.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <new>

namespace retri::util {

namespace {

bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Writes `code` (a Unicode scalar value) as UTF-8 at `out`; returns the
/// byte count.
std::size_t put_utf8(char* out, std::uint32_t code) noexcept {
  if (code < 0x80) {
    out[0] = static_cast<char>(code);
    return 1;
  }
  if (code < 0x800) {
    out[0] = static_cast<char>(0xc0 | (code >> 6));
    out[1] = static_cast<char>(0x80 | (code & 0x3f));
    return 2;
  }
  if (code < 0x10000) {
    out[0] = static_cast<char>(0xe0 | (code >> 12));
    out[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out[2] = static_cast<char>(0x80 | (code & 0x3f));
    return 3;
  }
  out[0] = static_cast<char>(0xf0 | (code >> 18));
  out[1] = static_cast<char>(0x80 | ((code >> 12) & 0x3f));
  out[2] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
  out[3] = static_cast<char>(0x80 | (code & 0x3f));
  return 4;
}

/// Upper bound on the nodes a document can hold: the root, plus one per
/// ',' (an element after the first), ':' (a key) and '[' or '{' (a first
/// element). Bytes inside strings only make the bound looser. Sixteen bytes
/// at a time on the compiler's generic vectors (SSE2 on x86-64): each lane
/// counts its hits, '[' and '{' in one compare because they differ only in
/// bit 0x20, for at most 127 rounds before the lanes are summed.
std::size_t node_bound(std::string_view text) noexcept {
  using Lanes = signed char __attribute__((vector_size(16)));
  constexpr std::size_t kWidth = sizeof(Lanes);
  std::size_t count = 1;
  std::size_t i = 0;
  while (i + kWidth <= text.size()) {
    Lanes hits{};
    const std::size_t stop =
        std::min(text.size() - kWidth + 1, i + 127 * kWidth);
    for (; i < stop; i += kWidth) {
      Lanes bytes;
      std::memcpy(&bytes, text.data() + i, kWidth);
      hits -= (bytes == ',') | (bytes == ':') | ((bytes | 0x20) == '{');
    }
    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      count += static_cast<std::size_t>(hits[lane]);
    }
  }
  for (; i < text.size(); ++i) {
    const char c = text[i];
    count += c == ',' || c == ':' || c == '[' || c == '{' ? 1 : 0;
  }
  return count;
}

}  // namespace

class JsonParser {
 public:
  using Kind = JsonValue::Kind;

  JsonParser(std::string_view text, std::size_t max_depth)
      : input_(text), max_depth_(max_depth) {}

  Result<JsonDocument, JsonParseError> run() {
    if (input_.size() > JsonValue::kSpanMask) {
      return fail("document too large"), std::move(error_);
    }
    const std::size_t capacity = node_bound(input_);
    // One block: the tape, then the text copy the views point into.
    JsonDocument doc;
    const std::size_t tape_bytes = capacity * sizeof(JsonValue);
    doc.block_.reset(new std::byte[tape_bytes + input_.size()]);
    nodes_ = reinterpret_cast<JsonValue*>(doc.block_.get());
    text_ = reinterpret_cast<char*>(doc.block_.get() + tape_bytes);
    if (!input_.empty()) std::memcpy(text_, input_.data(), input_.size());
    size_ = input_.size();
    capacity_ = capacity;

    skip_ws();
    if (!parse_value(0)) return std::move(error_);
    skip_ws();
    if (pos_ != size_) {
      return fail("trailing characters after the document"), std::move(error_);
    }
    static_cast<JsonValue&>(doc) = nodes_[0];
    return doc;
  }

 private:
  bool fail(std::string message) {
    // Keep the first (innermost) failure; callers unwind through it.
    if (error_.message.empty()) {
      error_.offset = pos_;
      error_.message = std::move(message);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < size_ && is_ws(text_[pos_])) ++pos_;
  }

  bool consume(char expected, const char* what) {
    if (pos_ >= size_ || text_[pos_] != expected) {
      return fail(std::string("expected ") + what);
    }
    ++pos_;
    return true;
  }

  /// Appends a node to the tape.
  JsonValue& emit(Kind kind) {
    assert(count_ < capacity_);
    JsonValue* node = ::new (nodes_ + count_++) JsonValue();
    node->tag_ = static_cast<std::uint32_t>(kind) << JsonValue::kKindShift | 1;
    return *node;
  }

  void emit_token(Kind kind, std::size_t start, std::size_t length) {
    JsonValue& node = emit(kind);
    node.text_ = text_ + start;
    node.size_ = static_cast<std::uint32_t>(length);
  }

  bool parse_value(std::size_t depth) {
    if (depth > max_depth_) return fail("nesting depth limit exceeded");
    if (pos_ >= size_) return fail("unexpected end of document");
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        std::size_t start = 0;
        std::size_t length = 0;
        if (!parse_string(start, length)) return false;
        emit_token(Kind::kString, start, length);
        return true;
      }
      case 't': return parse_literal("true", Kind::kBool, true);
      case 'f': return parse_literal("false", Kind::kBool, false);
      case 'n': return parse_literal("null", Kind::kNull, false);
      default: return parse_number();
    }
  }

  bool parse_literal(std::string_view word, Kind kind, bool value) {
    if (std::string_view(text_ + pos_, size_ - pos_).substr(0, word.size()) !=
        word) {
      return fail("unexpected token");
    }
    pos_ += word.size();
    emit(kind).size_ = value ? 1 : 0;
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (pos_ < size_ && text_[pos_] == '-') ++pos_;
    if (pos_ >= size_ || !is_digit(text_[pos_])) {
      return fail("malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero may not be followed by more digits
    } else {
      while (pos_ < size_ && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < size_ && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= size_ || !is_digit(text_[pos_])) {
        return fail("malformed number: digits required after '.'");
      }
      while (pos_ < size_ && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < size_ && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < size_ && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= size_ || !is_digit(text_[pos_])) {
        return fail("malformed number: digits required in exponent");
      }
      while (pos_ < size_ && is_digit(text_[pos_])) ++pos_;
    }
    emit_token(Kind::kNumber, start, pos_ - start);
    return true;
  }

  bool parse_hex4(std::uint32_t& value) {
    if (pos_ + 4 > size_) return fail("truncated \\u escape");
    value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("non-hex digit in \\u escape");
    }
    return true;
  }

  /// Reads a string token; its decoded text is left at [start, start +
  /// length) of the text copy. Escapes are decoded in place: the write
  /// cursor never passes the read cursor, because every escape is longer
  /// than the bytes it decodes to.
  bool parse_string(std::size_t& start, std::size_t& length) {
    if (!consume('"', "'\"'")) return false;
    start = pos_;
    while (true) {  // the escape-free prefix, usually the whole string
      if (pos_ >= size_) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        length = pos_++ - start;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c == '\\') break;
      ++pos_;
    }
    std::size_t out = pos_;
    while (true) {
      if (pos_ >= size_) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        length = out - start;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        text_[out++] = c;
        continue;
      }
      if (pos_ >= size_) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': text_[out++] = '"'; break;
        case '\\': text_[out++] = '\\'; break;
        case '/': text_[out++] = '/'; break;
        case 'b': text_[out++] = '\b'; break;
        case 'f': text_[out++] = '\f'; break;
        case 'n': text_[out++] = '\n'; break;
        case 'r': text_[out++] = '\r'; break;
        case 't': text_[out++] = '\t'; break;
        case 'u': {
          std::uint32_t code = 0;
          if (!parse_hex4(code)) return false;
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (pos_ + 1 < size_ && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              std::uint32_t low = 0;
              if (!parse_hex4(low)) return false;
              if (low < 0xdc00 || low > 0xdfff) {
                return fail("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            } else {
              return fail("unpaired high surrogate");
            }
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            return fail("unpaired low surrogate");
          }
          out += put_utf8(text_ + out, code);
          break;
        }
        default: return fail("unknown escape character");
      }
    }
  }

  /// Closes the container whose node is at `index` once its children are
  /// on the tape.
  void close(std::size_t index, std::size_t children) {
    JsonValue& node = nodes_[index];
    node.child_ = nodes_ + index + 1;
    node.size_ = static_cast<std::uint32_t>(children);
    node.tag_ = (node.tag_ & ~JsonValue::kSpanMask) |
                static_cast<std::uint32_t>(count_ - index);
  }

  bool parse_array(std::size_t depth) {
    ++pos_;  // '['
    const std::size_t index = count_;
    emit(Kind::kArray);
    std::size_t items = 0;
    skip_ws();
    if (pos_ < size_ && text_[pos_] == ']') {
      ++pos_;
      close(index, items);
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value(depth + 1)) return false;
      ++items;
      skip_ws();
      if (pos_ >= size_) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume(']', "',' or ']'")) return false;
      close(index, items);
      return true;
    }
  }

  bool parse_object(std::size_t depth) {
    ++pos_;  // '{'
    const std::size_t index = count_;
    emit(Kind::kObject);
    std::size_t members = 0;
    skip_ws();
    if (pos_ < size_ && text_[pos_] == '}') {
      ++pos_;
      close(index, members);
      return true;
    }
    while (true) {
      skip_ws();
      std::size_t key_start = 0;
      std::size_t key_length = 0;
      if (!parse_string(key_start, key_length)) return false;
      skip_ws();
      if (!consume(':', "':'")) return false;
      emit_token(Kind::kString, key_start, key_length);
      skip_ws();
      if (!parse_value(depth + 1)) return false;
      ++members;
      skip_ws();
      if (pos_ >= size_) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume('}', "',' or '}'")) return false;
      close(index, members);
      return true;
    }
  }

  std::string_view input_;
  std::size_t max_depth_;
  JsonValue* nodes_ = nullptr;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
  char* text_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  JsonParseError error_;
};

namespace {

/// The whole token as a T, or 0 when it is not one.
template <class T>
T parse_token(std::string_view token) noexcept {
  T value{};
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  return (ec == std::errc{} && ptr == last) ? value : T{};
}

}  // namespace

std::uint64_t JsonValue::as_u64() const noexcept {
  return is_number() ? parse_token<std::uint64_t>(raw()) : 0;
}

std::int64_t JsonValue::as_i64() const noexcept {
  return is_number() ? parse_token<std::int64_t>(raw()) : 0;
}

double JsonValue::as_double() const noexcept {
  return is_number() ? parse_token<double>(raw()) : 0.0;
}

const JsonValue& JsonValue::operator[](std::size_t i) const {
  assert(is_array() && i < size_);
  return items()[i];
}

const JsonValue& JsonItems::operator[](std::size_t i) const {
  assert(i < size_);
  const JsonValue* node = first_;
  while (i-- > 0) node = node->next_sibling();
  return *node;
}

JsonMember JsonMembers::operator[](std::size_t i) const {
  assert(i < size_);
  iterator it = begin();
  while (i-- > 0) ++it;
  return *it;
}

JsonMembers::iterator JsonMembers::find(std::string_view key) const noexcept {
  for (iterator it = begin(); it != end(); ++it) {
    if (it.key() == key) return it;
  }
  return end();
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  const JsonMembers all = members();
  const auto it = all.find(key);
  return it == all.end() ? nullptr : &it.value();
}

std::uint64_t JsonValue::u64(std::string_view key, std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_u64() : fallback;
}

std::int64_t JsonValue::i64(std::string_view key, std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_i64() : fallback;
}

double JsonValue::dbl(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::string JsonValue::str(std::string_view key, std::string fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? std::string(v->as_string())
                                        : std::move(fallback);
}

bool JsonValue::boolean(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::string JsonParseError::describe() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "offset %zu: ", offset);
  return std::string(buf) + message;
}

Result<JsonDocument, JsonParseError> parse_json(std::string_view text,
                                                std::size_t max_depth) {
  return JsonParser(text, max_depth).run();
}

}  // namespace retri::util

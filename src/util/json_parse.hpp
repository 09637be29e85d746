// Flat-tape JSON reader — the read half of util/json.hpp.
//
// Until retri::serve, every artifact the repo produced was write-only: the
// JsonWriter emitted BENCH_*.json / trace files and external tools consumed
// them. The serve subsystem closes the loop — cache entries, job
// checkpoints, and wire frames are all JSON this process must read back —
// so the container policy's "no new dependencies" rule buys us a second
// hand-rolled half instead of a library. A warm served sweep reads every
// result body twice (the server re-derives its fingerprint, the client
// decodes the trial frame), so this reader is on the serve hit path.
//
// Design points:
//   - parse_json() returns a JsonDocument that owns one heap block: the
//     node tape followed by the document's own copy of the input text, so
//     no view can outlive or alias the caller's buffer. The tape is sized
//     before parsing from an upper bound on the node count (one node per
//     ',', ':', '[' and '{', plus the root), which makes a parse exactly one
//     allocation whatever the document's size.
//   - A JsonValue is one 16-byte tape node and a view of its document:
//     scalars point at their token in the copied text, containers at their
//     first child node. The tape is in document order with every subtree
//     contiguous (an object's children alternate key node, value subtree),
//     and each node records its subtree's node count, so the next sibling
//     is one addition away. Views stay valid while the document lives,
//     moves of the document included.
//   - Strings with escapes are decoded in place in the document's copy of
//     the text (a decoded string is never longer than its escaped form);
//     every other string, key and number is a view of its token.
//   - Numbers keep their raw token. A 64-bit derived seed does not survive
//     a double round-trip, so as_u64()/as_i64() re-parse the original token
//     with std::from_chars and as_double() gets the exact shortest-form
//     value the writer emitted — the cache's byte-identical guarantee
//     hinges on this.
//   - Lookup walks siblings: find() and operator[] are linear (serve
//     documents have tens of keys, not thousands), and members() iterates
//     in document order.
//   - Untrusted input (wire frames) is bounded: a depth limit rejects
//     pathological nesting instead of overflowing the stack, and every
//     error carries a byte offset. A node packs its lengths into 29 bits,
//     so a document of 512 MiB or more is refused whole (serve frames stop
//     at 64 MiB).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace retri::util {

/// A string token's decoded text (a key, a string value or a raw number):
/// a view into its document that converts to std::string where one is
/// needed.
class JsonString : public std::string_view {
 public:
  using std::string_view::string_view;
  constexpr JsonString(std::string_view s) noexcept  // NOLINT(google-explicit-constructor)
      : std::string_view(s) {}
  operator std::string() const { return std::string(data(), size()); }  // NOLINT(google-explicit-constructor)
};

/// `message + key`, for messages built around a key or string value.
inline std::string operator+(std::string lhs, JsonString rhs) {
  lhs.append(rhs);
  return lhs;
}

class JsonItems;
class JsonMembers;

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  /// A null value outside any document.
  JsonValue() noexcept : text_(nullptr) {}

  Kind kind() const noexcept { return static_cast<Kind>(tag_ >> kKindShift); }
  bool is_null() const noexcept { return kind() == Kind::kNull; }
  bool is_bool() const noexcept { return kind() == Kind::kBool; }
  bool is_number() const noexcept { return kind() == Kind::kNumber; }
  bool is_string() const noexcept { return kind() == Kind::kString; }
  bool is_array() const noexcept { return kind() == Kind::kArray; }
  bool is_object() const noexcept { return kind() == Kind::kObject; }

  /// Scalar accessors. Wrong-kind reads return the neutral value (false, 0,
  /// empty) rather than throwing: codecs validate kinds up front and the
  /// neutral fallback keeps call sites branch-free.
  bool as_bool() const noexcept { return is_bool() && size_ != 0; }
  /// A string's decoded text (a number's raw token; empty otherwise).
  JsonString as_string() const noexcept { return raw(); }
  /// Exact integer re-parse of the raw token; 0 when the token is not a
  /// whole in-range integer (use is_number() + raw() to distinguish).
  std::uint64_t as_u64() const noexcept;
  std::int64_t as_i64() const noexcept;
  double as_double() const noexcept;
  /// The untouched number token as it appeared in the document (a
  /// string's decoded text; empty for other kinds).
  JsonString raw() const noexcept {
    return is_number() || is_string() ? JsonString(text_, size_)
                                      : JsonString();
  }

  /// Containers: element or member count (0 for scalars).
  std::size_t size() const noexcept {
    return is_array() || is_object() ? size_ : 0;
  }
  /// The i-th array element (a walk over i siblings). Out-of-range index
  /// or a non-array is a programming error (asserted).
  const JsonValue& operator[](std::size_t i) const;
  JsonItems items() const noexcept;
  JsonMembers members() const noexcept;
  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const noexcept;

  /// Member conveniences: find(key) with a neutral default when the member
  /// is absent or the wrong kind.
  std::uint64_t u64(std::string_view key, std::uint64_t fallback = 0) const;
  std::int64_t i64(std::string_view key, std::int64_t fallback = 0) const;
  double dbl(std::string_view key, double fallback = 0.0) const;
  std::string str(std::string_view key, std::string fallback = {}) const;
  bool boolean(std::string_view key, bool fallback = false) const;

 private:
  friend class JsonParser;
  friend class JsonItems;
  friend class JsonMembers;

  /// tag_ holds the kind in its top bits and the subtree's node count
  /// (itself included) below them, so a node is 16 bytes on 64-bit hosts.
  static constexpr unsigned kKindShift = 29;
  static constexpr std::uint32_t kSpanMask = (1u << kKindShift) - 1;

  std::uint32_t span() const noexcept { return tag_ & kSpanMask; }
  /// One past the last node of a container's subtree.
  const JsonValue* children_end() const noexcept {
    return child_ + span() - 1;
  }
  /// The node after this one's subtree (only meaningful on the tape).
  const JsonValue* next_sibling() const noexcept { return this + span(); }

  union {
    const char* text_;        // scalars: token (or decoded string) bytes
    const JsonValue* child_;  // containers: first child node
  };
  std::uint32_t size_ = 0;  // token length, element/member count, or bool
  std::uint32_t tag_ = 1;   // kind << kKindShift | span
};

/// An array's elements in document order.
class JsonItems {
 public:
  class iterator {
   public:
    explicit iterator(const JsonValue* node) noexcept : node_(node) {}
    const JsonValue& operator*() const noexcept { return *node_; }
    iterator& operator++() noexcept {
      node_ = node_->next_sibling();
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const JsonValue* node_ = nullptr;
  };

  JsonItems() = default;
  explicit JsonItems(const JsonValue& array) noexcept
      : first_(array.child_), last_(array.children_end()), size_(array.size_) {}

  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(last_); }
  std::size_t size() const noexcept { return size_; }
  const JsonValue& operator[](std::size_t i) const;

 private:
  const JsonValue* first_ = nullptr;
  const JsonValue* last_ = nullptr;
  std::size_t size_ = 0;
};

/// One object member: its decoded key and its value.
struct JsonMember {
  JsonString first;
  const JsonValue& second;
};

/// An object's members in document order.
class JsonMembers {
 public:
  class iterator {
   public:
    explicit iterator(const JsonValue* key) noexcept : key_(key) {}
    JsonMember operator*() const noexcept {
      return JsonMember{key_->raw(), key_[1]};
    }
    JsonString key() const noexcept { return key_->raw(); }
    const JsonValue& value() const noexcept { return key_[1]; }
    iterator& operator++() noexcept {
      key_ = key_[1].next_sibling();
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const JsonValue* key_ = nullptr;
  };

  JsonMembers() = default;
  explicit JsonMembers(const JsonValue& object) noexcept
      : first_(object.child_),
        last_(object.children_end()),
        size_(object.size_) {}

  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(last_); }
  std::size_t size() const noexcept { return size_; }
  JsonMember operator[](std::size_t i) const;
  /// First member named `key`, or end().
  iterator find(std::string_view key) const noexcept;

 private:
  const JsonValue* first_ = nullptr;
  const JsonValue* last_ = nullptr;
  std::size_t size_ = 0;
};

inline JsonItems JsonValue::items() const noexcept {
  return is_array() ? JsonItems(*this) : JsonItems();
}

inline JsonMembers JsonValue::members() const noexcept {
  return is_object() ? JsonMembers(*this) : JsonMembers();
}

/// A parsed document: the root value, plus ownership of the tape and text
/// every view into it points at. Move-only.
class JsonDocument : public JsonValue {
 private:
  friend class JsonParser;
  JsonDocument() = default;

  std::unique_ptr<std::byte[]> block_;  // node tape, then the text copy
};

struct JsonParseError {
  std::size_t offset = 0;  // byte position of the failure
  std::string message;

  /// "offset 17: unexpected token" — the one-line CLI rendering.
  std::string describe() const;
};

/// Parses one complete JSON document; trailing non-whitespace is an error
/// (a truncated or concatenated frame must not silently half-parse).
/// `max_depth` bounds container nesting for untrusted input.
Result<JsonDocument, JsonParseError> parse_json(std::string_view text,
                                                std::size_t max_depth = 96);

}  // namespace retri::util

// util::parse_json's flat tape against a reference model: the recursive
// node-DOM parser the tape replaced, kept here verbatim in behaviour. Over
// tens of thousands of inputs built from a real encode_result body and a
// real cache-entry file — every truncation, random byte flips, generated
// escapes and surrogate pairs, nesting at and past the depth limit — both
// must make the same accept/reject decision, report the same error offset
// and message, and, on success, expose the same structure: kinds, raw
// number tokens, decoded strings, keys and member order.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/experiment.hpp"
#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "util/json_parse.hpp"
#include "util/random.hpp"

namespace util = retri::util;
namespace serve = retri::serve;
namespace runner = retri::runner;
namespace fs = std::filesystem;

namespace {

// --- the reference model: a recursive node DOM --------------------------

struct DomValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // string payload, or raw number token
  std::vector<DomValue> items;
  std::vector<std::pair<std::string, DomValue>> members;
};

struct DomResult {
  bool ok = false;
  DomValue value;
  std::size_t offset = 0;
  std::string message;
};

void append_utf8(std::string& out, std::uint32_t code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xc0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xe0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else {
    out.push_back(static_cast<char>(0xf0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  }
}

class DomOracle {
 public:
  DomOracle(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  DomResult run() {
    DomResult out;
    skip_ws();
    if (!parse_value(out.value, 0)) return error();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after the document");
      return error();
    }
    out.ok = true;
    return out;
  }

 private:
  using Kind = DomValue::Kind;

  DomResult error() {
    DomResult out;
    out.offset = offset_;
    out.message = message_;
    return out;
  }

  bool fail(std::string message) {
    if (message_.empty()) {
      offset_ = pos_;
      message_ = std::move(message);
    }
    return false;
  }

  static bool is_ws(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  bool consume(char expected, const char* what) {
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      return fail(std::string("expected ") + what);
    }
    ++pos_;
    return true;
  }

  bool parse_value(DomValue& out, std::size_t depth) {
    if (depth > max_depth_) return fail("nesting depth limit exceeded");
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out = DomValue();
        out.kind = Kind::kString;
        return parse_string(out.text);
      case 't': return parse_literal("true", Kind::kBool, true, out);
      case 'f': return parse_literal("false", Kind::kBool, false, out);
      case 'n': return parse_literal("null", Kind::kNull, false, out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, Kind kind, bool value,
                     DomValue& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("unexpected token");
    }
    pos_ += word.size();
    out = DomValue();
    out.kind = kind;
    out.boolean = value;
    return true;
  }

  bool parse_number(DomValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      return fail("malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        return fail("malformed number: digits required after '.'");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        return fail("malformed number: digits required in exponent");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    out = DomValue();
    out.kind = Kind::kNumber;
    out.text = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  bool parse_hex4(std::uint32_t& value) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
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

  bool parse_string(std::string& out) {
    if (!consume('"', "'\"'")) return false;
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t code = 0;
          if (!parse_hex4(code)) return false;
          if (code >= 0xd800 && code <= 0xdbff) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
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
          append_utf8(out, code);
          break;
        }
        default: return fail("unknown escape character");
      }
    }
  }

  bool parse_array(DomValue& out, std::size_t depth) {
    ++pos_;
    out = DomValue();
    out.kind = Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      DomValue item;
      skip_ws();
      if (!parse_value(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']', "',' or ']'");
    }
  }

  bool parse_object(DomValue& out, std::size_t depth) {
    ++pos_;
    out = DomValue();
    out.kind = Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':', "':'")) return false;
      skip_ws();
      DomValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}', "',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::size_t offset_ = 0;
  std::string message_;
};

// --- comparison ----------------------------------------------------------

/// First difference between the model and the tape, or empty.
std::string diff(const DomValue& want, const util::JsonValue& got,
                 const std::string& path) {
  const int want_kind = static_cast<int>(want.kind);
  const int got_kind = static_cast<int>(got.kind());
  if (want_kind != got_kind) {
    return path + ": kind " + std::to_string(want_kind) + " vs " +
           std::to_string(got_kind);
  }
  switch (want.kind) {
    case DomValue::Kind::kNull:
      return {};
    case DomValue::Kind::kBool:
      return want.boolean == got.as_bool() ? std::string() : path + ": bool";
    case DomValue::Kind::kNumber:
    case DomValue::Kind::kString:
      if (want.text != got.raw() || want.text != got.as_string()) {
        return path + ": text \"" + want.text + "\" vs \"" +
               std::string(got.raw()) + "\"";
      }
      return {};
    case DomValue::Kind::kArray: {
      if (want.items.size() != got.size() ||
          want.items.size() != got.items().size()) {
        return path + ": array size";
      }
      std::size_t i = 0;
      for (const util::JsonValue& item : got.items()) {
        const std::string sub = path + "[" + std::to_string(i) + "]";
        if (std::string d = diff(want.items[i], item, sub); !d.empty()) {
          return d;
        }
        if (&got[i] != &item) return sub + ": operator[] disagrees";
        ++i;
      }
      return i == want.items.size() ? std::string() : path + ": item count";
    }
    case DomValue::Kind::kObject: {
      if (want.members.size() != got.size() ||
          want.members.size() != got.members().size()) {
        return path + ": member count";
      }
      std::size_t i = 0;
      for (const auto& [key, value] : got.members()) {
        const auto& [want_key, want_value] = want.members[i];
        const std::string sub = path + "." + want_key;
        if (key != want_key) return sub + ": key \"" + std::string(key) + "\"";
        if (std::string d = diff(want_value, value, sub); !d.empty()) return d;
        // find() answers the first member of that name, as the DOM did.
        std::size_t first = 0;
        while (want.members[first].first != want_key) ++first;
        const util::JsonValue* found = got.find(want_key);
        if (found != &got.members()[first].second) return sub + ": find";
        ++i;
      }
      return i == want.members.size() ? std::string() : path + ": members";
    }
  }
  return path + ": unknown kind";
}

class Differential {
 public:
  /// Parses `text` with both readers; records the first disagreement.
  void check(const std::string& text, std::size_t max_depth = 96) {
    ++inputs_;
    const DomResult want = DomOracle(text, max_depth).run();
    const auto got = util::parse_json(text, max_depth);
    std::string why;
    if (want.ok != got.ok()) {
      why = std::string("decision: model ") + (want.ok ? "accepts" : "rejects");
    } else if (!want.ok) {
      if (want.offset != got.error().offset ||
          want.message != got.error().message) {
        why = "error: model offset " + std::to_string(want.offset) + " \"" +
              want.message + "\" vs " + got.error().describe();
      }
    } else {
      why = diff(want.value, got.value(), "$");
    }
    if (want.ok) ++accepted_;
    if (!why.empty() && failures_++ == 0) {
      first_failure_ = why + " on input of " + std::to_string(text.size()) +
                       " bytes: " + text.substr(0, 300);
    }
  }

  std::size_t inputs() const { return inputs_; }
  std::size_t accepted() const { return accepted_; }
  std::size_t failures() const { return failures_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  std::size_t inputs_ = 0;
  std::size_t accepted_ = 0;
  std::size_t failures_ = 0;
  std::string first_failure_;
};

/// A real trial result body, as the cache stores and the wire carries it.
std::string real_result_body() {
  runner::ExperimentConfig config;
  config.senders = 3;
  config.send_duration = retri::sim::Duration::seconds(2);
  return serve::encode_result(runner::run_experiment(config));
}

/// A real cache-entry file: the body above stored through ResultCache.
std::string real_cache_entry(const std::string& body) {
  const fs::path dir = fs::temp_directory_path() / "retri_json_tape_entry";
  fs::remove_all(dir);
  serve::CacheOptions options;
  options.dir = dir.string();
  {
    serve::ResultCache cache(options);
    cache.put("0123456789abcdef", "sweep-trial", "fp", body);
  }
  std::ifstream in(dir / "0123456789abcdef.json", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  fs::remove_all(dir);
  return text.str();
}

/// Random strings mixing plain text with every escape form, valid and not.
std::string escape_soup(util::Xoshiro256& rng) {
  static constexpr std::string_view kPieces[] = {
      "a",       "Z",        " ",        "\\\"",     "\\\\",    "\\/",
      "\\b",     "\\f",      "\\n",      "\\r",      "\\t",     "\\u0041",
      "\\u00e9", "\\u20AC",  "\\uFFFF",  "\\u0000",  "\\ud83d\\ude00",
      "\\uD834\\uDD1E",      "\\ud800",  "\\udc00",  "\\ud800\\u0041",
      "\\ud800x",            "\\u12",    "\\u12G4",  "\\x",     "\\",
      "\x01",    "\x1f",     "\xc3\xa9", "\"",       "\\ud800\\",
      "\\ud800\\u",           "\\ud7ff", "\\ue000", "\\udbff\\udfff",
      "\\ud800\\udc00",       "\\ud800\\ue000",     "\\udbff\\udbff"};
  std::string out = "\"";
  const std::size_t pieces = 1 + rng.next() % 6;
  for (std::size_t i = 0; i < pieces; ++i) {
    out += kPieces[rng.next() % std::size(kPieces)];
  }
  if (rng.next() % 8 != 0) out += '"';
  return out;
}

}  // namespace

TEST(JsonTapeDifferential, MatchesTheDomModelOnRealAndMutatedDocuments) {
  const std::string body = real_result_body();
  const std::string entry = real_cache_entry(body);
  ASSERT_GT(body.size(), 4096u);
  ASSERT_NE(entry.find("\\\""), std::string::npos);  // an escaped body

  // Real documents of every codec, whole.
  std::vector<std::string> documents = {body, entry};
  runner::ExperimentConfig config;
  documents.push_back(serve::canonical_cell(config));
  serve::ServeEvent done;
  done.kind = serve::ServeEvent::Kind::kJobDone;
  done.job_id = "j\"1\\";
  documents.push_back(serve::encode_event(done));
  documents.push_back(serve::encode_status(serve::ServerStatus{}));

  Differential differential;
  for (const std::string& doc : documents) differential.check(doc);

  // Truncation at every offset of the body and of the cache-entry file.
  for (const std::string* doc : {&body, &entry}) {
    for (std::size_t n = 0; n < doc->size(); ++n) {
      differential.check(doc->substr(0, n));
    }
  }

  // Random byte flips: 1-3 bytes, biased toward JSON's structural bytes.
  util::Xoshiro256 rng(0x7a9e'5eedULL);
  static constexpr std::string_view kBytes = "{}[],:\"\\ 0-+.eE1tfnu\x01\xff";
  std::string small = body.substr(0, 2048);
  small.resize(small.rfind(','));
  small += "}";  // a small, still mostly valid, real prefix
  for (int i = 0; i < 8000; ++i) {
    std::string doc = i % 20 == 0 ? body : i % 2 == 0 ? small : documents[2];
    const int flips = 1 + static_cast<int>(rng.next() % 3);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.next() % doc.size();
      doc[at] = rng.next() % 4 == 0
                    ? static_cast<char>(rng.next() & 0xff)
                    : kBytes[rng.next() % kBytes.size()];
    }
    differential.check(doc);
  }

  // Escapes and surrogate pairs, as values and as keys.
  for (int i = 0; i < 6000; ++i) {
    const std::string s = escape_soup(rng);
    differential.check(i % 2 == 0 ? "[" + s + "," + escape_soup(rng) + "]"
                                  : "{" + s + ":" + escape_soup(rng) + "}");
  }

  // Nesting at and past the depth limit, for several limits.
  for (std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                            std::size_t{96}}) {
    for (std::size_t depth = 0; depth <= limit + 3; ++depth) {
      std::string arrays(depth, '[');
      arrays += "1";
      arrays += std::string(depth, ']');
      differential.check(arrays, limit);
      std::string objects;
      for (std::size_t d = 0; d < depth; ++d) objects += "{\"k\":";
      objects += "[]";
      objects += std::string(depth, '}');
      differential.check(objects, limit);
      differential.check(std::string(depth, '['), limit);  // unterminated
    }
  }
  differential.check(std::string(200, '[') + std::string(200, ']'));

  EXPECT_GE(differential.inputs(), 20000u);
  EXPECT_GE(differential.accepted(), 1000u);
  EXPECT_EQ(differential.failures(), 0u) << differential.first_failure();
}

TEST(JsonTape, ViewsOutliveTheInputTextAndSurviveMoves) {
  std::string text = R"({"k":"vé","n":[1,{"x":-2.5e3}],"s":"plain"})";
  auto parsed = util::parse_json(text);
  ASSERT_TRUE(parsed.ok());
  text.assign(text.size(), '#');  // the document keeps its own copy
  util::JsonDocument doc = std::move(parsed).value();
  const util::JsonValue* n = doc.find("n");
  ASSERT_NE(n, nullptr);
  util::JsonDocument moved = std::move(doc);
  EXPECT_EQ(moved.str("k"), "v\xc3\xa9");
  EXPECT_EQ(moved.str("s"), "plain");
  EXPECT_EQ((*n)[1].find("x")->raw(), "-2.5e3");
  EXPECT_EQ(moved.find("n"), n);  // views point into the moved tape
  const util::JsonValue copy = (*n)[1];  // a container view copies freely
  EXPECT_EQ(copy.members()[0].first, "x");
}
